package detect

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// ErrSample is returned when a snapshot cannot be consumed as-is: a row
// count that does not match the fleet, or — reported by callers that
// reject instead of degrading — a row with the wrong width or a
// non-finite QoS value that would poison detector state (NaN slips
// through interval tests — v < 0 || v > 1 is false for NaN — so
// finiteness is tested by name; see Classify).
var ErrSample = errors.New("detect: invalid sample")

// minShard is the smallest per-worker device range worth a goroutine:
// below it the spawn/join overhead exceeds the detector work itself, so
// a pass degrades to a serial one.
const minShard = 2048

// Walker shards the per-device passes over one snapshot across a fixed
// pool size. The error-detection functions a_k(j) are independent
// local tests (Section III-A), which makes the walk embarrassingly
// parallel per device: Walker slices the fleet into contiguous id
// ranges, one per worker, and concatenates the per-worker abnormal-id
// buffers in range order, so the merged abnormal set is byte-identical
// to a serial walk whatever the worker count.
//
// A Walker's buffers are reused across snapshots; it is not safe for
// concurrent use.
type Walker struct {
	workers int
	flags   [][]int
	errs    []error
	counts  []int
	// wg joins one pass's shard goroutines; a field rather than a local
	// so the join itself allocates nothing per pass.
	wg sync.WaitGroup
	// The pending pass's inputs, set for the duration of one Classify
	// or WalkSkip call so the shard workers need no per-call closure.
	classify bool
	devs     []*Device
	rows     [][]float64
	clean    []bool
	visit    func(dev int, row []float64)
}

// NewWalker returns a walker with the given pool size; workers <= 0
// selects GOMAXPROCS.
func NewWalker(workers int) *Walker {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Walker{
		workers: workers,
		flags:   make([][]int, workers),
		errs:    make([]error, workers),
		counts:  make([]int, workers),
	}
}

// Workers returns the configured pool size.
func (w *Walker) Workers() int { return w.workers }

// fanOut runs the pending pass over n devices — serially when the pool
// is one worker or the fleet fills at most one minShard range, else as
// one goroutine per contiguous id range — and returns the number of
// ranges; range i's
// results land in w.counts[i] or w.flags[i]/w.errs[i]. The inputs are
// dropped afterwards so the walker never pins a snapshot.
func (w *Walker) fanOut(n int) int {
	workers := max(1, min(w.workers, (n+minShard-1)/minShard))
	if workers == 1 {
		w.shard(0, 0, n)
	} else {
		w.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func(i int) {
				defer w.wg.Done()
				w.shard(i, i*n/workers, (i+1)*n/workers)
			}(i)
		}
		w.wg.Wait()
	}
	w.classify, w.devs, w.rows, w.clean, w.visit = false, nil, nil, nil, nil
	return workers
}

// shard runs the pending pass over devices [lo, hi) as range i.
func (w *Walker) shard(i, lo, hi int) {
	if w.classify {
		w.counts[i] = classifyRange(w.devs, w.rows, w.clean, lo, hi)
		return
	}
	buf := w.flags[i]
	if buf == nil {
		buf = make([]int, 0, (hi-lo)/8+16)
	}
	w.flags[i], w.errs[i] = walkSkipRange(w.devs, w.rows, w.visit, lo, hi, buf[:0])
}

// Classify grades every row of a possibly-degraded snapshot without
// touching any detector, sharded like WalkSkip: clean[dev] is set to
// whether row dev is present (non-nil), matches device dev's width,
// and is finite in every coordinate. Malformed and missing reports
// fold into one bit — neither carries a usable measurement — so
// classification never errors; a caller that rejects instead of
// degrading looks up the offending row itself. Returns the number of
// clean rows. len(samples) and len(clean) must equal len(devs).
func (w *Walker) Classify(devs []*Device, samples [][]float64, clean []bool) int {
	w.classify, w.devs, w.rows, w.clean = true, devs, samples, clean
	total := 0
	for _, c := range w.counts[:w.fanOut(len(devs))] {
		total += c
	}
	return total
}

func classifyRange(devs []*Device, samples [][]float64, clean []bool, lo, hi int) int {
	n := 0
	for dev := lo; dev < hi; dev++ {
		row := samples[dev]
		ok := row != nil && len(row) == len(devs[dev].detectors)
		if ok {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					ok = false
					break
				}
			}
		}
		clean[dev] = ok
		if ok {
			n++
		}
	}
	return n
}

// WalkSkip runs the detector walk of one pre-classified snapshot: row
// j of rows is fed to device j — exactly one Update — unless it is
// nil, in which case device j's detectors are left untouched for this
// tick and the device cannot be flagged. The ids whose abnormal flag
// a_k(j) fired are appended to out in ascending order, reusing out's
// storage; the shards merge in id order, byte-identical to a serial
// pass.
//
// visit, when non-nil, runs for every device — nil rows included —
// inside the same sharded pass, before that device's Update, so the
// caller can copy or park the device's slot of a shared state. Shards
// are disjoint contiguous id ranges, so visit may write to per-device
// slots of a shared structure without synchronization, but must not
// touch state shared across devices.
//
// Rows must already be graded clean (Classify): there is no validation
// phase, so a detector error surfaces with the offending shard
// partially consumed.
func (w *Walker) WalkSkip(devs []*Device, rows [][]float64, visit func(dev int, row []float64), out []int) ([]int, error) {
	out = out[:0]
	if len(rows) != len(devs) {
		return out, fmt.Errorf("snapshot has %d rows, want %d: %w", len(rows), len(devs), ErrSample)
	}
	w.devs, w.rows, w.visit = devs, rows, visit
	workers := w.fanOut(len(devs))
	for _, flagged := range w.flags[:workers] {
		out = append(out, flagged...)
	}
	for _, err := range w.errs[:workers] {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// walkSkipRange walks devices [lo, hi), appending flagged ids.
func walkSkipRange(devs []*Device, rows [][]float64, visit func(dev int, row []float64), lo, hi int, flagged []int) ([]int, error) {
	for dev := lo; dev < hi; dev++ {
		row := rows[dev]
		if visit != nil {
			visit(dev, row)
		}
		if row == nil {
			continue
		}
		abnormal, err := devs[dev].Update(row)
		if err != nil {
			return flagged, fmt.Errorf("device %d: %w", dev, err)
		}
		if abnormal {
			flagged = append(flagged, dev)
		}
	}
	return flagged, nil
}
