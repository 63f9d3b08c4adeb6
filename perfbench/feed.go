package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"anomalia"
	"anomalia/internal/metrics"
	"anomalia/internal/snapio"
)

// replay is the byte stream a gateway would read: the workload's
// encoded frames in window order, served endlessly. Frame t of the
// stream is frames[frameOf(t)], so the reader never stalls and never
// allocates.
type replay struct {
	w    *workload
	next int
	cur  []byte
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.cur) == 0 {
		r.cur = r.w.frames[r.w.frameOf(r.next)]
		r.next++
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// decoder turns the replayed bytes back into monitor rows through one
// snapio.FrameReader, reusing its buffers tick after tick exactly as
// the gateway's binary source does.
type decoder struct {
	fr       *snapio.FrameReader
	rows     [][]float64
	services int
}

func newDecoder(w *workload) *decoder {
	return &decoder{fr: snapio.NewFrameReader(&replay{w: w}, w.devices*w.services), services: w.services}
}

func (d *decoder) next() ([][]float64, error) {
	vals, err := d.fr.Next()
	if err != nil {
		return nil, err
	}
	d.rows = snapio.Rows(vals, d.rows, d.services)
	return d.rows, nil
}

// feed is one monitor consuming one replayed stream, with its shard
// on wire-10k.
type feed struct {
	m     *anomalia.Monitor
	dec   *decoder
	shard *shard
}

// openFeed builds the monitor and feeds it the training frame: the
// span setup_s measures. serial pins the detector walk to one worker.
// central drops the directory even on wire-10k (the reference monitor).
func openFeed(w *workload, serial, central bool) (*feed, error) {
	s := &feed{dec: newDecoder(w)}
	opts := slices.Clone(w.cfg)
	if serial {
		opts = append(opts, anomalia.WithIngestWorkers(1))
	}
	if w.wire && !central {
		s.shard = newShard()
		opts = append(opts, anomalia.WithMetrics(metrics.NewRegistry()), anomalia.WithDirectory(anomalia.DirectoryConfig{
			Addrs:          []string{"shard-0"},
			Dial:           s.shard.dial,
			RequestTimeout: requestTimeout,
		}))
	}
	m, err := anomalia.NewMonitor(w.devices, w.services, opts...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.m = m
	rows, err := s.dec.next()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("training frame: %w", err)
	}
	if _, err := m.ObservePartial(rows); err != nil {
		s.close()
		return nil, fmt.Errorf("training frame: %w", err)
	}
	return s, nil
}

func (s *feed) close() {
	if s.shard != nil {
		s.shard.close()
	}
}

// cost is what one window took: wall-clock time, and the CPU time of
// the whole process (every thread, the runtime's and the in-process
// shard's included) over the same span.
type cost struct{ wall, cpu time.Duration }

// step consumes one window, from encoded bytes to the returned Outcome.
// It also returns the decoded rows, valid until the next step.
func (s *feed) step() (cost, [][]float64, *anomalia.Outcome, error) {
	c0, t0 := cpuTime(), time.Now()
	rows, err := s.dec.next()
	var out *anomalia.Outcome
	if err == nil {
		out, err = s.m.ObservePartial(rows)
	}
	return cost{wall: time.Since(t0), cpu: time.Duration(cpuTime() - c0)}, rows, out, err
}

// verdict is what the correctness gate compares: a digest of one
// window's M/I/U sets, or of the error that lost it. Digests keep the
// gate's memory flat however long the loop runs, so the benchmark's own
// heap does not shift the monitor's GC pacing.
type verdict [sha256.Size]byte

func verdictOf(out *anomalia.Outcome, err error) verdict {
	h := sha256.New()
	if err != nil {
		h.Write([]byte("error: " + err.Error()))
	} else if out != nil {
		var b []byte
		for _, set := range [][]int{out.Massive, out.Isolated, out.Unresolved} {
			b = binary.AppendUvarint(b, uint64(len(set)))
			for _, dev := range set {
				b = binary.AppendUvarint(b, uint64(dev))
			}
		}
		h.Write(b)
	}
	var v verdict
	h.Sum(v[:0])
	return v
}

// reference replays windows 1..windows through a fresh centralized
// monitor with the workload's characterization options — on wire-10k
// the in-process oracle the networked path is pinned to. On the cyclic
// workloads, whose streams carry no faults, it also checks each
// reference window against the generated values themselves and marks
// one that disagrees as untrue.
func reference(w *workload, windows int) ([]verdict, error) {
	s, err := openFeed(w, false, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	var prev [][]float64
	if w.cycle > 0 {
		rows, err := newDecoder(w).next()
		if err != nil {
			return nil, err
		}
		prev = cloneRows(rows)
	}
	out := make([]verdict, 0, windows)
	for t := 1; t <= windows; t++ {
		_, rows, o, err := s.step()
		v := verdictOf(o, err)
		if prev != nil && rows != nil {
			if !w.truthful(prev, rows, o) {
				v = untrue
			}
			prev = cloneRows(rows)
		}
		out = append(out, v)
	}
	return out, nil
}

// untrue stands in for a reference window that contradicts the
// generated values; no monitor output digests to it, so every window
// checked against it fails.
var untrue = verdict{0xff}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// truthful reports whether a window's verdicts agree with what the
// generator put in it: the abnormal devices are exactly those whose
// value jumped by more than the detector threshold on some service,
// and on quiet-1m each of them is isolated.
func (w *workload) truthful(prev, cur [][]float64, out *anomalia.Outcome) bool {
	var want []int
	for dev, row := range cur {
		for s, v := range row {
			if math.Abs(v-prev[dev][s]) > w.delta {
				want = append(want, dev)
				break
			}
		}
	}
	var got []int
	if out != nil {
		got = slices.Concat(out.Massive, out.Isolated, out.Unresolved)
		slices.Sort(got)
	}
	if !slices.Equal(want, got) {
		return false
	}
	return !w.allIsolated || out == nil || len(out.Isolated) == len(got)
}

// gate checks every window of a run against the reference. Cyclic
// workloads get their reference up front (one pass over the cycle);
// the others collect verdicts and check after the loop.
type gate struct {
	w       *workload
	ref     []verdict
	pending []verdict
	lost    []bool
	failed  int
	wrong   int
}

func newGate(w *workload) (*gate, error) {
	g := &gate{w: w}
	if w.cycle > 0 {
		ref, err := reference(w, w.cycle)
		if err != nil {
			return nil, err
		}
		g.ref = ref
	}
	return g, nil
}

// observe records window t's verdict. A window with an Observe or
// decode error is failed whatever the reference says.
func (g *gate) observe(t int, out *anomalia.Outcome, err error) {
	v := verdictOf(out, err)
	if err != nil {
		g.failed++
	}
	if g.ref == nil {
		g.pending = append(g.pending, v)
		g.lost = append(g.lost, err != nil)
		return
	}
	if v != g.ref[(t-1)%len(g.ref)] {
		g.wrong++
		if err == nil {
			g.failed++
		}
	}
}

// finish checks the collected verdicts of non-cyclic workloads.
func (g *gate) finish() error {
	if len(g.pending) == 0 {
		return nil
	}
	ref, err := reference(g.w, len(g.pending))
	if err != nil {
		return err
	}
	for i, v := range g.pending {
		if v != ref[i] {
			g.wrong++
			if !g.lost[i] {
				g.failed++
			}
		}
	}
	g.pending, g.lost = nil, nil
	return nil
}

// freshHeap collects garbage so set-up and loop timings do not pay for
// the previous phase's heap.
func freshHeap() { runtime.GC() }

var errNoWindows = errors.New("no window completed in the timed loop")
