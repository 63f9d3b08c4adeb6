package detect

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// degradeStream knocks holes into a clean stream: with the given seed,
// some rows become nil (missing), some get a NaN/Inf coordinate, some
// the wrong width. Returns the degraded stream and the per-tick truth
// of which rows stayed clean.
func degradeStream(stream [][][]float64, seed int64) ([][][]float64, [][]bool) {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]float64, len(stream))
	truth := make([][]bool, len(stream))
	for k, snap := range stream {
		rows := make([][]float64, len(snap))
		clean := make([]bool, len(snap))
		for j, row := range snap {
			clean[j] = true
			rows[j] = row
			switch p := rng.Float64(); {
			case p < 0.05:
				rows[j] = nil
				clean[j] = false
			case p < 0.10:
				bad := append([]float64(nil), row...)
				switch rng.Intn(3) {
				case 0:
					bad[rng.Intn(len(bad))] = math.NaN()
				case 1:
					bad[rng.Intn(len(bad))] = math.Inf(1)
				default:
					bad[rng.Intn(len(bad))] = math.Inf(-1)
				}
				rows[j] = bad
				clean[j] = false
			case p < 0.13:
				if rng.Intn(2) == 0 {
					rows[j] = row[:len(row)-1] // too short
				} else {
					rows[j] = append(append([]float64(nil), row...), 0.5) // too wide
				}
				clean[j] = false
			}
		}
		out[k] = rows
		truth[k] = clean
	}
	return out, truth
}

// TestClassifyMatchesTruth: Classify must grade exactly the rows that
// are present, full-width and finite — identically for the serial and
// sharded paths — without a single detector consuming a sample, so a
// caller that rejects on a NaN, ±Inf or width fault rejects before
// mutating anything.
func TestClassifyMatchesTruth(t *testing.T) {
	t.Parallel()

	const n, d = 8192, 2
	devs, consumed := countedFleet(t, n, d)
	stream, truth := degradeStream(walkStream(n, d, 4, 11), 12)

	for _, workers := range []int{1, 3, 8} {
		w := NewWalker(workers)
		clean := make([]bool, n)
		for k, snap := range stream {
			got := w.Classify(devs, snap, clean)
			want := 0
			for _, ok := range truth[k] {
				if ok {
					want++
				}
			}
			if got != want {
				t.Fatalf("workers=%d tick %d: Classify = %d clean, want %d", workers, k, got, want)
			}
			if !reflect.DeepEqual(clean, truth[k]) {
				t.Fatalf("workers=%d tick %d: clean mask diverges from truth", workers, k)
			}
		}
	}
	if got := consumed(); got != 0 {
		t.Errorf("grading consumed %d samples", got)
	}
}

// TestClassifyWidthZeroRow: a zero-length non-nil row is malformed for
// any real width, and a nil row is never clean.
func TestClassifyWidthZeroRow(t *testing.T) {
	t.Parallel()

	devs := walkFleet(t, 3, 1, "threshold")
	clean := make([]bool, 3)
	got := NewWalker(1).Classify(devs, [][]float64{{0.5}, {}, nil}, clean)
	if got != 1 || !clean[0] || clean[1] || clean[2] {
		t.Fatalf("Classify = %d, mask %v", got, clean)
	}
}

// TestWalkSkipParity: for every detector family, the sharded WalkSkip
// over a degraded stream must produce the identical abnormal set,
// detector state and visit coverage as the serial pass — and skipped
// devices' detectors must not move at all.
func TestWalkSkipParity(t *testing.T) {
	t.Parallel()

	const n, d, ticks = 8192, 2, 6
	for _, family := range []string{"threshold", "ewma", "cusum", "holtwinters", "kalman", "shewhart"} {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			stream, truth := degradeStream(walkStream(n, d, ticks, 21), 22)
			// Build the effective rows the monitor would feed: nil rows
			// where the row is not clean (this test has no hold values).
			effective := make([][][]float64, ticks)
			for k := range stream {
				rows := make([][]float64, n)
				for j := range rows {
					if truth[k][j] {
						rows[j] = stream[k][j]
					}
				}
				effective[k] = rows
			}

			serialDevs := walkFleet(t, n, d, family)
			serial := NewWalker(1)
			wantAbn := make([][]int, ticks)
			for k := range effective {
				out, err := serial.WalkSkip(serialDevs, effective[k], nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				wantAbn[k] = append([]int(nil), out...)
			}

			for _, workers := range []int{2, 5, 8} {
				devs := walkFleet(t, n, d, family)
				w := NewWalker(workers)
				visited := make([]int, n)
				var buf []int
				for k := range effective {
					for j := range visited {
						visited[j] = 0
					}
					out, err := w.WalkSkip(devs, effective[k], func(dev int, row []float64) {
						visited[dev]++
						if (row == nil) == truth[k][dev] {
							t.Errorf("tick %d device %d: row nil-ness disagrees with truth", k, dev)
						}
					}, buf[:0])
					if err != nil {
						t.Fatal(err)
					}
					buf = out
					if !reflect.DeepEqual(out, wantAbn[k]) {
						t.Fatalf("workers=%d tick %d: abnormal set %v, serial %v", workers, k, out, wantAbn[k])
					}
					for j, v := range visited {
						if v != 1 {
							t.Fatalf("workers=%d tick %d: device %d visited %d times", workers, k, j, v)
						}
					}
				}
				// Detector state equivalence: predictions match the serial
				// fleet's on every device, including the skipped ones.
				for j := range devs {
					if !reflect.DeepEqual(devs[j].Predict(), serialDevs[j].Predict()) {
						t.Fatalf("workers=%d: device %d prediction diverges from serial", workers, j)
					}
				}
			}
		})
	}
}

// TestWalkSkipAllNil: a tick with every row missing updates nothing and
// flags nothing.
func TestWalkSkipAllNil(t *testing.T) {
	t.Parallel()

	const n = 4096
	devs := walkFleet(t, n, 1, "threshold")
	before := make([][]float64, n)
	for j := range devs {
		before[j] = devs[j].Predict()
	}
	out, err := NewWalker(4).WalkSkip(devs, make([][]float64, n), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("abnormal set %v from an all-missing tick", out)
	}
	for j := range devs {
		if !reflect.DeepEqual(devs[j].Predict(), before[j]) {
			t.Fatalf("device %d detector moved on an all-missing tick", j)
		}
	}
}

// TestWalkSkipRowCountMismatch: a snapshot with the wrong device count
// is rejected outright, before any detector consumes a sample.
func TestWalkSkipRowCountMismatch(t *testing.T) {
	t.Parallel()

	devs, consumed := countedFleet(t, 8, 1)
	snap := walkStream(7, 1, 1, 5)[0]
	if _, err := NewWalker(4).WalkSkip(devs, snap, nil, nil); !errors.Is(err, ErrSample) {
		t.Fatalf("error = %v, want ErrSample", err)
	}
	if consumed() != 0 {
		t.Error("short snapshot consumed samples")
	}
}
