package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"time"

	"anomalia"
	"anomalia/internal/dirnet"
	"anomalia/internal/netsim"
	"anomalia/internal/scenario"
	"anomalia/internal/snapio"
	"anomalia/internal/stats"
)

// workload is one generated snapshot stream plus the monitor
// configuration it is replayed through. frames[0] is the training
// snapshot; window t >= 1 consumes frames[frameOf(t)].
type workload struct {
	name     string
	devices  int
	services int
	frames   [][]byte
	frameOf  func(t int) int
	// cycle > 0 means the monitor's verdict for window t depends only on
	// the frame pair (frameOf(t-1), frameOf(t)) and the pairs repeat
	// with this period, so one pass over the cycle is a complete
	// reference. Zero means the reference replays every consumed frame.
	cycle int
	// cfg holds the characterization options shared by the monitor
	// under test and its reference.
	cfg    []anomalia.Option
	radius float64
	exact  bool
	wire   bool
	// delta is the threshold detector's jump bound on every service.
	delta float64
	// allIsolated: every verdict the generator can produce is isolated.
	allIsolated bool
}

// sizes are the workload parameters; toySizes shrinks them for the smoke
// mode, which checks the plumbing rather than the numbers.
type sizes struct {
	quietN              int
	massN               int
	massR               float64
	wireN, wireA, wireW int
	wireR               float64
	wireOutage          int
}

func fullSizes() sizes {
	return sizes{
		quietN: 1_000_000,
		massN:  250_000, massR: 0.002,
		wireN: 10_000, wireA: 100, wireW: 100, wireR: 0.01, wireOutage: 200,
	}
}

func toySizes() sizes {
	return sizes{
		quietN: 4000,
		massN:  20_000, massR: 0.006,
		wireN: 1000, wireA: 20, wireW: 6, wireR: 0.03, wireOutage: 20,
	}
}

var workloadNames = []string{"quiet-1m", "mass-250k", "wire-10k"}

// requestTimeout is DirectoryConfig.RequestTimeout on wire-10k: far
// above the slowest window, so a slow search is never turned into a
// retry or a fallback by wall-clock timing.
const requestTimeout = 60 * time.Second

// defaultDelta is the library's default threshold detector bound.
const defaultDelta = 0.05

// wireDetectorDelta is the wire-10k jump threshold. The scenario model
// moves every impacted device by a bounded, non-zero shift (at most 2r =
// 0.02, below the default 0.05 threshold) and leaves every other device
// exactly where it was, so any jump is the error-detection signal.
const wireDetectorDelta = 1e-9

func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "quiet-1m":
		return quietWorkload(seed, sz)
	case "mass-250k":
		return massWorkload(seed, sz)
	case "wire-10k":
		return wireWorkload(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func encode(flat []float64) ([]byte, error) {
	var buf bytes.Buffer
	w := snapio.NewFrameWriter(&buf)
	if err := w.Write(flat); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func cyclicOrder(k int) func(int) int { return func(t int) int { return t % k } }

// quietWorkload: a fleet at rest with sub-threshold jitter (each value
// moves by less than the 0.05 detector threshold between any two
// frames, cycle wrap included). Frame 5 dips three devices by 0.3 on
// service 0 and frame 6 restores them, so two windows of every ten
// carry single-device Theorem 5 verdicts and eight are quiet.
func quietWorkload(seed int64, sz sizes) (*workload, error) {
	const d = 2
	const k = 10
	n := sz.quietN
	rng := stats.NewRNG(seed)
	base := make([]float64, n*d)
	for i := range base {
		base[i] = rng.UniformRange(0.35, 0.95)
	}
	dips := rng.Sample(rng.Perm(1000), 3)
	for i := range dips {
		dips[i] = dips[i] * (n / 1000)
	}
	w := &workload{
		name: "quiet-1m", devices: n, services: d, frameOf: cyclicOrder(k), cycle: k,
		exact: true, radius: anomalia.DefaultRadius, delta: defaultDelta, allIsolated: true,
	}
	flat := make([]float64, n*d)
	for f := 0; f < k; f++ {
		for i, v := range base {
			flat[i] = v + rng.UniformRange(-0.02, 0.02)
		}
		if f == 5 {
			for _, dev := range dips {
				flat[dev*d] -= 0.3
			}
		}
		b, err := encode(flat)
		if err != nil {
			return nil, err
		}
		w.frames = append(w.frames, b)
	}
	return w, nil
}

// massWorkload: uniform devices; the ~4% inside a random 0.2×0.2 box
// jointly shift by +0.1 on both services in odd frames and return in
// even ones, so every window is a ~10k-device mass event. Each frame
// also throws three devices outside the box to random positions for
// one frame (isolated glitches).
func massWorkload(seed int64, sz sizes) (*workload, error) {
	const d = 2
	const k = 4
	n := sz.massN
	rng := stats.NewRNG(seed)
	base := make([]float64, n*d)
	for i := range base {
		base[i] = rng.Float64()
	}
	bx, by := rng.UniformRange(0, 0.7), rng.UniformRange(0, 0.7)
	inBox := func(dev int) bool {
		x, y := base[dev*d], base[dev*d+1]
		return x >= bx && x < bx+0.2 && y >= by && y < by+0.2
	}
	w := &workload{
		name: "mass-250k", devices: n, services: d, frameOf: cyclicOrder(k), cycle: k,
		radius: sz.massR, delta: defaultDelta,
		cfg: []anomalia.Option{anomalia.WithRadius(sz.massR), anomalia.WithExact(false)},
	}
	flat := make([]float64, n*d)
	for f := 0; f < k; f++ {
		copy(flat, base)
		if f%2 == 1 {
			for dev := 0; dev < n; dev++ {
				if inBox(dev) {
					flat[dev*d] += 0.1
					flat[dev*d+1] += 0.1
				}
			}
		}
		for g := 0; g < 3; {
			dev := rng.Intn(n)
			if inBox(dev) {
				continue
			}
			flat[dev*d], flat[dev*d+1] = rng.Float64(), rng.Float64()
			g++
		}
		b, err := encode(flat)
		if err != nil {
			return nil, err
		}
		w.frames = append(w.frames, b)
	}
	return w, nil
}

// wireWorkload: the paper's scenario generator (concomitant errors,
// bounded shifts) degraded by a seeded drop/corruption stream and one
// burst outage, with lost reports carried in-band as NaN exactly as
// anomalia-sim -emit bin writes them. The stream is replayed forward
// and backward (S_0..S_W..S_0..) so the timed loop never outruns the
// generator, which costs ~0.17 s per window at n=10k.
func wireWorkload(seed int64, sz sizes) (*workload, error) {
	const d = 2
	n, steps := sz.wireN, sz.wireW
	gen, err := scenario.New(scenario.Config{
		N: n, D: d, R: sz.wireR, Tau: anomalia.DefaultTau, A: sz.wireA, G: 0.3,
		Concomitant: true, MaxShift: 2 * sz.wireR, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	start := steps / 3
	inj, err := netsim.NewInjector(netsim.InjectorConfig{
		Seed: seed + 1, DropProb: 0.002, CorruptProb: 0.001,
		Outages: []netsim.Outage{{From: n / 2, To: n/2 + sz.wireOutage, Start: start, End: start + 4}},
	})
	if err != nil {
		return nil, err
	}
	w := &workload{
		name: "wire-10k", devices: n, services: d, radius: sz.wireR, wire: true, delta: wireDetectorDelta,
		frameOf: func(t int) int {
			p := t % (2 * steps)
			if p > steps {
				return 2*steps - p
			}
			return p
		},
		cfg: []anomalia.Option{
			anomalia.WithRadius(sz.wireR), anomalia.WithExact(false),
			anomalia.WithDetectorFactory(func(int, int) (anomalia.Detector, error) {
				return anomalia.NewThresholdDetector(wireDetectorDelta)
			}),
		},
	}
	rows := make([][]float64, n)
	flat := make([]float64, 0, n*d)
	emit := func(frame int, at func(int) []float64) error {
		for j := range rows {
			rows[j] = at(j)
		}
		degraded, _ := inj.Apply(frame, rows)
		flat = flat[:0]
		for _, row := range degraded {
			if row == nil {
				flat = append(flat, math.NaN(), math.NaN())
				continue
			}
			flat = append(flat, row...)
		}
		b, err := encode(flat)
		if err != nil {
			return err
		}
		w.frames = append(w.frames, b)
		return nil
	}
	for k := 1; k <= steps; k++ {
		st, err := gen.Step()
		if err != nil {
			return nil, fmt.Errorf("scenario window %d: %w", k, err)
		}
		if k == 1 {
			if err := emit(0, func(j int) []float64 { return st.Pair.Prev.At(j) }); err != nil {
				return nil, err
			}
		}
		if err := emit(k, func(j int) []float64 { return st.Pair.Cur.At(j) }); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// shard is one in-process dirnet shard server reached through
// net.Pipe, standing in for cmd/anomalia-directory.
type shard struct{ srv *dirnet.Server }

func newShard() *shard { return &shard{srv: dirnet.NewServer()} }

func (s *shard) dial(string) (net.Conn, error) {
	c1, c2 := net.Pipe()
	go s.srv.HandleConn(c2)
	return c1, nil
}

func (s *shard) close() { s.srv.Close() }
