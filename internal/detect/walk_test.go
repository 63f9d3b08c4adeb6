package detect

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// walkFleet builds n devices with d services each from the named
// detector family.
func walkFleet(t testing.TB, n, d int, family string) []*Device {
	t.Helper()
	factory := func(int) (Detector, error) {
		switch family {
		case "threshold":
			return NewThreshold(0.05)
		case "ewma":
			return NewEWMA(0.3, 5, 0.01, 3)
		case "cusum":
			return NewCUSUM(0.01, 0.08, 0.1)
		case "holtwinters":
			return NewHoltWinters(0.5, 0.3, 0, 6, 0.05, 0)
		case "kalman":
			return NewKalman(1e-4, 1e-3, 5)
		case "shewhart":
			return NewShewhart(5, 0.02, 5)
		default:
			return nil, fmt.Errorf("unknown family %q", family)
		}
	}
	devs := make([]*Device, n)
	for i := range devs {
		dev, err := NewDevice(d, factory)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	return devs
}

// walkStream synthesizes ticks: mostly-flat QoS with seeded noise and
// occasional per-device jumps so every family fires somewhere.
func walkStream(n, d, ticks int, seed int64) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	stream := make([][][]float64, ticks)
	for k := range stream {
		snap := make([][]float64, n)
		for j := range snap {
			row := make([]float64, d)
			for s := range row {
				v := 0.9 + 0.01*rng.Float64()
				if rng.Float64() < 0.05 {
					v = rng.Float64() // jump: abnormal for most families
				}
				row[s] = v
			}
			snap[j] = row
		}
		stream[k] = snap
	}
	return stream
}

// TestWalkParity: for every detector family and several seeds, the
// sharded walk of a fully clean snapshot — graded by Classify, then
// walked by WalkSkip, the strict ingest policy's composition — must
// produce, tick for tick, the identical abnormal set, identical
// per-service predictions, and identical visit coverage as the serial
// walk, whatever the worker count. minShard is bypassed by sizing the
// fleet above one shard per worker.
func TestWalkParity(t *testing.T) {
	t.Parallel()

	const d = 2
	const ticks = 6
	families := []string{"threshold", "ewma", "cusum", "holtwinters", "kalman", "shewhart"}
	for _, family := range families {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7, 991} {
				for _, workers := range []int{2, 3, 7, 16} {
					n := workers * minShard // every worker gets a full shard
					serialDevs := walkFleet(t, n, d, family)
					shardDevs := walkFleet(t, n, d, family)
					serial := NewWalker(1)
					sharded := NewWalker(workers)
					stream := walkStream(n, d, ticks, seed)
					clean := make([]bool, n)
					var sOut, pOut []int
					for k, snap := range stream {
						if got := sharded.Classify(shardDevs, snap, clean); got != n {
							t.Fatalf("tick %d: Classify graded %d of %d clean rows clean", k, got, n)
						}
						var err error
						sOut, err = serial.WalkSkip(serialDevs, snap, nil, sOut)
						if err != nil {
							t.Fatal(err)
						}
						visited := make([]int32, n)
						pOut, err = sharded.WalkSkip(shardDevs, snap, func(dev int, row []float64) {
							visited[dev]++
						}, pOut)
						if err != nil {
							t.Fatal(err)
						}
						if !equalInts(sOut, pOut) {
							t.Fatalf("seed %d workers %d tick %d: abnormal sets diverge: serial %d ids, sharded %d ids",
								seed, workers, k, len(sOut), len(pOut))
						}
						for dev, c := range visited {
							if c != 1 {
								t.Fatalf("tick %d device %d visited %d times", k, dev, c)
							}
						}
					}
					// Detector state parity: the sharded fleet must have
					// consumed exactly the serial fleet's history.
					for j := 0; j < n; j += n / 64 {
						sp, pp := serialDevs[j].Predict(), shardDevs[j].Predict()
						for s := range sp {
							if sp[s] != pp[s] {
								t.Fatalf("seed %d workers %d device %d service %d: prediction %v != %v",
									seed, workers, j, s, pp[s], sp[s])
							}
						}
					}
				}
			}
		})
	}
}

// countingDetector records how many samples it consumed.
type countingDetector struct{ updates int }

func (c *countingDetector) Update(float64) bool { c.updates++; return false }
func (c *countingDetector) Predict() float64    { return 0 }
func (c *countingDetector) Reset()              { c.updates = 0 }

// countedFleet builds a fleet of counting detectors and a probe into
// their total consumed-sample count.
func countedFleet(t *testing.T, n, d int) ([]*Device, func() int) {
	t.Helper()
	var counters []*countingDetector
	devs := make([]*Device, n)
	for i := range devs {
		dev, err := NewDevice(d, func(int) (Detector, error) {
			c := &countingDetector{}
			counters = append(counters, c)
			return c, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	total := func() int {
		sum := 0
		for _, c := range counters {
			sum += c.updates
		}
		return sum
	}
	return devs, total
}

// TestWalkRejectsBeforeMutating: a NaN, ±Inf or width fault anywhere in
// the fleet is graded unclean by Classify — the phase a rejecting caller
// runs before the walk — with not one sample consumed, serially or
// sharded; a clean snapshot afterwards walks normally.
func TestWalkRejectsBeforeMutating(t *testing.T) {
	t.Parallel()

	const n = 3 * minShard
	const d = 2
	bad := map[string]struct {
		dev     int
		corrupt func(snap [][]float64)
	}{
		"nan":   {n - 5, func(s [][]float64) { s[n-5][1] = math.NaN() }},
		"+inf":  {7, func(s [][]float64) { s[7][0] = math.Inf(1) }},
		"-inf":  {n / 2, func(s [][]float64) { s[n/2][0] = math.Inf(-1) }},
		"width": {n / 2, func(s [][]float64) { s[n/2] = []float64{0.5} }},
	}
	for name, tc := range bad {
		for _, workers := range []int{1, 4} {
			devs, consumed := countedFleet(t, n, d)
			w := NewWalker(workers)
			snap := walkStream(n, d, 1, 3)[0]
			tc.corrupt(snap)
			clean := make([]bool, n)
			if got := w.Classify(devs, snap, clean); got != n-1 || clean[tc.dev] {
				t.Fatalf("%s workers=%d: Classify = %d clean, device %d clean=%v; want %d, false",
					name, workers, got, tc.dev, clean[tc.dev], n-1)
			}
			if got := consumed(); got != 0 {
				t.Errorf("%s workers=%d: %d samples consumed by grading", name, workers, got)
			}
			// A clean snapshot afterwards proceeds normally.
			if _, err := w.WalkSkip(devs, walkStream(n, d, 1, 4)[0], nil, nil); err != nil {
				t.Fatalf("%s workers=%d: clean walk after rejection: %v", name, workers, err)
			}
			if got := consumed(); got != n*d {
				t.Errorf("%s workers=%d: clean walk consumed %d samples, want %d", name, workers, got, n*d)
			}
		}
	}
}

// TestWalkRowCountMismatch: a snapshot with too few or too many rows is
// rejected outright by the serial and the sharded walk alike, with no
// device flagged and no sample consumed.
func TestWalkRowCountMismatch(t *testing.T) {
	t.Parallel()

	for _, rows := range []int{7, 9} {
		for _, workers := range []int{1, 4} {
			devs, consumed := countedFleet(t, 8, 1)
			snap := walkStream(rows, 1, 1, 5)[0]
			out, err := NewWalker(workers).WalkSkip(devs, snap, nil, nil)
			if !errors.Is(err, ErrSample) {
				t.Fatalf("rows=%d workers=%d: error = %v, want ErrSample", rows, workers, err)
			}
			if len(out) != 0 {
				t.Errorf("rows=%d workers=%d: flagged %v", rows, workers, out)
			}
			if consumed() != 0 {
				t.Errorf("rows=%d workers=%d: mis-sized snapshot consumed samples", rows, workers)
			}
		}
	}
}

// TestWalkReportsLowestOffender: with malformed rows in several shards,
// the first unclean entry of the graded mask — the row a rejecting
// caller names — is the lowest offending device id, for the serial and
// the sharded grading alike, so error surfaces are worker-count
// independent.
func TestWalkReportsLowestOffender(t *testing.T) {
	t.Parallel()

	const n = 4 * minShard
	devs := walkFleet(t, n, 1, "threshold")
	snap := walkStream(n, 1, 1, 6)[0]
	lowest := minShard + 11 // second shard of four
	snap[lowest][0] = math.NaN()
	snap[3*minShard+5][0] = math.Inf(1) // fourth shard
	for _, workers := range []int{1, 4} {
		clean := make([]bool, n)
		if got := NewWalker(workers).Classify(devs, snap, clean); got != n-2 {
			t.Fatalf("workers=%d: Classify = %d clean, want %d", workers, got, n-2)
		}
		if got := slices.Index(clean, false); got != lowest {
			t.Errorf("workers=%d: first unclean row %d, want lowest offender %d", workers, got, lowest)
		}
	}
}

// TestWalkSmallFleetSerialFallback: fleets below one shard run serially
// (no goroutines) yet through the same contract.
func TestWalkSmallFleetSerialFallback(t *testing.T) {
	t.Parallel()

	devs := walkFleet(t, 16, 1, "threshold")
	w := NewWalker(8)
	// Train, then jump every even device.
	snap := make([][]float64, 16)
	for j := range snap {
		snap[j] = []float64{0.9}
	}
	if _, err := w.WalkSkip(devs, snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 16; j += 2 {
		snap[j] = []float64{0.2}
	}
	out, err := w.WalkSkip(devs, snap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4, 6, 8, 10, 12, 14}
	if !equalInts(out, want) {
		t.Errorf("flagged %v, want %v", out, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
