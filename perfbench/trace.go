package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"anomalia"
	"anomalia/internal/core"
	"anomalia/internal/detect"
	"anomalia/internal/dirnet"
	"anomalia/internal/dist"
	"anomalia/internal/health"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// reconcileTolerance bounds |traced - untraced| / untraced for the
// median window: the traced run's per-layer self times (window glue,
// decode, observe) must add up to the untraced tick_p50_ms within it.
const reconcileTolerance = 0.10

// span is one timed call, recorded from the benchmark's side of a
// module boundary. trace is the window index. Probe spans re-run a
// module on the window's inputs to time work another module's call
// hides; they hang off their own root and stay outside the sum.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(trace, parent int, name string, probe bool) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.epoch)), Probe: probe})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// selfTimes returns, per window and span name, the span's duration
// minus the time its children cover (children never overlap: every
// call is sequential on the observing goroutine).
func (t *tracer) selfTimes() map[int]map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]float64{}
	for i, s := range t.spans {
		m := out[s.Trace]
		if m == nil {
			m = map[string]float64{}
			out[s.Trace] = m
		}
		m[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mirror replays the monitor's ObservePartial pipeline module by
// module on the same rows — the probe that times the layers Monitor
// hides inside one call. It keeps its own detectors, health tracker
// and state double buffer, fed every frame the monitor is fed, so its
// abnormal set and state pair equal the monitor's (checked per window).
// On wire-10k it also times the distributed layers on the same window:
// the in-process directory (the work the shard does) and a probe shard
// over dirnet. Every workload gets the centralized motion and core
// layers probed; on wire-10k they sit outside the sum, since the shard
// decides on 4r views instead.
type mirror struct {
	w       *workload
	dets    []*detect.Device
	walker  *detect.Walker
	tracker *health.Tracker
	clean   []bool
	eff     [][]float64
	prev    *space.State
	spare   *space.State
	abn     []int
	cfg     core.Config
	dir     *dist.Directory
	shard   *shard
	client  *dirnet.Client
}

func newMirror(w *workload) (*mirror, error) {
	delta := w.delta
	m := &mirror{w: w, dets: make([]*detect.Device, w.devices), clean: make([]bool, w.devices), eff: make([][]float64, w.devices)}
	for dev := range m.dets {
		d, err := detect.NewDevice(w.services, func(int) (detect.Detector, error) { return detect.NewThreshold(delta) })
		if err != nil {
			return nil, err
		}
		m.dets[dev] = d
	}
	m.walker = detect.NewWalker(0)
	t, err := health.New(w.devices, health.DefaultPolicy())
	if err != nil {
		return nil, err
	}
	m.tracker = t
	m.cfg = core.Config{R: w.radius, Tau: anomalia.DefaultTau, Exact: w.exact}
	if !w.wire {
		return m, nil
	}
	m.shard = newShard()
	m.client, err = dirnet.NewClient(dirnet.Config{Addrs: []string{"probe-0"}, Dial: m.shard.dial, RequestTimeout: requestTimeout})
	if err != nil {
		m.shard.close()
		return nil, err
	}
	return m, nil
}

func (m *mirror) close() {
	if m.client != nil {
		m.client.Close()
		m.shard.close()
	}
}

// probeStats are the per-window counts the probes observe.
type probeStats struct {
	abnormal, faulty, quarantined int
	largest, motions              int
	rebuilt, advanced             int
	viewSize                      float64
}

// step feeds one window's rows through the mirrored pipeline. With a
// nil tracer it only keeps the mirror in lock-step (no probes run).
func (m *mirror) step(rows [][]float64, tr *tracer, trace int) (probeStats, error) {
	var ps probeStats
	root := -1
	timed := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		id := tr.begin(trace, root, name, true)
		err := f()
		tr.end(id)
		return err
	}
	if tr != nil {
		root = tr.begin(trace, -1, "probe", true)
		defer tr.end(root)
	}
	eff := rows
	_ = timed("health.dispatch", func() error {
		nClean := m.walker.Classify(m.dets, rows, m.clean)
		ps.faulty = len(rows) - nClean
		if nClean == len(rows) && m.tracker.AllLive() {
			m.tracker.ConsumeAll()
			return nil
		}
		eff = m.eff
		for dev := range eff {
			switch m.tracker.Report(dev, m.clean[dev]) {
			case health.Consume:
				eff[dev] = rows[dev]
			case health.Hold:
				if m.prev == nil {
					eff[dev] = nil
				} else {
					eff[dev] = m.prev.At(dev)
				}
			default:
				eff[dev] = nil
			}
		}
		return nil
	})
	_, _, ps.quarantined = m.tracker.Counts()

	cur := m.spare
	m.spare = nil
	if cur == nil {
		var err error
		if cur, err = space.NewState(m.w.devices, m.w.services); err != nil {
			return ps, err
		}
	}
	prev := m.prev
	err := timed("detect.walk", func() error {
		var err error
		m.abn, err = m.walker.WalkSkip(m.dets, eff, func(dev int, row []float64) {
			dst := cur.At(dev)
			switch {
			case row != nil:
				copy(dst, row)
				dst.Clamp()
			case prev != nil:
				copy(dst, prev.At(dev))
			default:
				clear(dst)
			}
		}, m.abn[:0])
		return err
	})
	if err != nil {
		return ps, err
	}
	m.prev, m.spare = cur, prev
	ps.abnormal = len(m.abn)
	if tr == nil || prev == nil || len(m.abn) == 0 {
		return ps, nil
	}

	var pair *motion.Pair
	if err := timed("motion.pair", func() (err error) { pair, err = motion.NewPair(prev, cur); return err }); err != nil {
		return ps, err
	}
	var g *motion.Graph
	_ = timed("motion.graph", func() error { g = motion.NewGraph(pair, m.abn, m.cfg.R); return nil })
	var cs *motion.Components
	_ = timed("motion.components", func() error { cs = g.Components(); return nil })
	_ = timed("motion.enumerate", func() error {
		for c := 0; c < cs.Count(); c++ {
			mo, _ := g.MaximalMotionsOfComponent(c, cs)
			ps.motions += len(mo)
			ps.largest = max(ps.largest, cs.Size(c))
		}
		return nil
	})
	if err := timed("core.characterize", func() error {
		ch, err := core.New(pair, m.abn, m.cfg)
		if err != nil {
			return err
		}
		_, err = ch.CharacterizeAll()
		return err
	}); err != nil {
		return ps, fmt.Errorf("core probe: %w", err)
	}
	if !m.w.wire {
		return ps, nil
	}

	if err := timed("dist.advance", func() error {
		ps.advanced = 1
		if m.dir != nil {
			st, err := m.dir.Advance(pair, m.abn, nil)
			if err == nil {
				if st.Rebuilt {
					ps.rebuilt = 1
				}
				return nil
			}
		}
		ps.rebuilt = 1
		var err error
		m.dir, err = dist.NewDirectory(pair, m.abn, m.cfg.R)
		return err
	}); err != nil {
		return ps, fmt.Errorf("dist probe: %w", err)
	}
	if err := timed("dist.decide", func() error {
		_, st, err := dist.DecideAll(m.dir, m.cfg)
		ps.viewSize = float64(st.ViewSize) / float64(len(m.abn))
		return err
	}); err != nil {
		return ps, fmt.Errorf("dist probe: %w", err)
	}
	if err := timed("dirnet.decide_window", func() error {
		_, _, err := m.client.DecideWindow(pair, m.abn, m.cfg)
		return err
	}); err != nil {
		return ps, fmt.Errorf("dirnet probe: %w", err)
	}
	return ps, nil
}

// layerSum lists the probes whose times partition the monitor's
// ObservePartial call on a workload: everything else it spends is
// anomalia.self_ms. The other probes are finer splits of these
// (graph/components/enumerate inside core.characterize) or the
// counterfactual deployment, and are reported outside the sum.
func layerSum(w *workload) []string {
	last := "core.characterize"
	if w.wire {
		last = "dirnet.decide_window"
	}
	return []string{"snapio.decode", "health.dispatch", "detect.walk", "motion.pair", last}
}

func runTraced(w *workload, dur time.Duration, spansPath string, log io.Writer) (*result, error) {
	s, err := openFeed(w, false, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	mir, err := newMirror(w)
	if err != nil {
		return nil, err
	}
	defer mir.close()
	// The mirror starts from the training frame the feed consumed.
	rows, err := newDecoder(w).next()
	if err != nil {
		return nil, err
	}
	if _, err := mir.step(rows, nil, 0); err != nil {
		return nil, err
	}
	g := &gate{w: w}
	if w.cycle > 0 {
		if g, err = newGate(w); err != nil {
			return nil, err
		}
	}
	res := &result{}
	t, mismatch := 0, 0
	observe := func(out *anomalia.Outcome, err error) {
		t++
		g.observe(t, out, err)
		res.Attempted++
	}
	tr := &tracer{epoch: time.Now()}

	// Phase 1, probes: the monitor consumes each window untimed (its
	// verdicts are still checked), then the mirror re-runs the window
	// module by module on the same rows, every module call a probe span.
	var per []windowCounts
	dirBefore := s.m.DirStats()
	start := time.Now()
	for i := 0; i < warmWindows || time.Since(start) < dur/3; i++ {
		_, rows, out, err := s.step()
		observe(out, err)
		var ptr *tracer
		if i >= warmWindows {
			ptr = tr
		}
		ps, perr := mir.step(rows, ptr, t)
		if perr != nil {
			return nil, perr
		}
		if err == nil && !slices.Equal(mir.abn, reported(out)) {
			mismatch++
		}
		if ptr != nil {
			per = append(per, countsOf(ps, out, err))
		}
	}
	dirAfter := s.m.DirStats()

	// Phase 2, traced: spans around the two calls a window makes, decode
	// and observe; their self times and the window's own sum to the
	// traced tick.
	freshHeap()
	var traced, decodeMs []float64
	start = time.Now()
	for time.Since(start) < dur/3 {
		win := tr.begin(t+1, -1, "window", false)
		dec := tr.begin(t+1, win, "snapio.decode", false)
		rows, err := s.dec.next()
		tr.end(dec)
		var out *anomalia.Outcome
		if err == nil {
			obs := tr.begin(t+1, win, "anomalia.observe", false)
			out, err = s.m.ObservePartial(rows)
			tr.end(obs)
		}
		tr.end(win)
		observe(out, err)
		if rows == nil {
			return nil, err
		}
		traced = append(traced, float64(tr.spans[win].End-tr.spans[win].Start)/1e6)
		decodeMs = append(decodeMs, float64(tr.spans[dec].End-tr.spans[dec].Start)/1e6)
	}

	// Phase 3, untraced: the plain loop, for reconciliation and the
	// allocation and CPU cost of a window.
	freshHeap()
	var ticks []float64
	allocs0, cpu0 := heapAllocs(), cpuTime()
	start = time.Now()
	for time.Since(start) < dur/3 {
		lat, _, out, err := s.step()
		observe(out, err)
		ticks = append(ticks, float64(lat.wall)/1e6)
	}
	allocs1, cpu1 := heapAllocs(), cpuTime()
	if err := g.finish(); err != nil {
		return nil, err
	}
	res.Failed, res.Correct = g.failed, g.wrong == 0 && mismatch == 0
	if len(per) == 0 || len(traced) == 0 || len(ticks) == 0 {
		return nil, errNoWindows
	}

	// Probe layers: the mean over probed windows of each window's self
	// time in the layer (0 where the layer did not run).
	nw := float64(len(per))
	layer := map[string]float64{}
	for _, m := range tr.selfTimes() {
		if _, ok := m["probe"]; !ok {
			continue
		}
		for name, v := range m {
			layer[name] += v / nw
		}
		if _, ok := m["core.characterize"]; ok {
			enum := m["motion.graph"] + m["motion.components"] + m["motion.enumerate"]
			layer["core.decide"] += (m["core.characterize"] - enum) / nw
		}
	}
	layer["snapio.decode"] = mean(decodeMs)
	perMean := func(f func(c windowCounts) float64) float64 {
		sum := 0.0
		for _, c := range per {
			sum += f(c)
		}
		return sum / nw
	}

	res.set("snapio.decode_ms", "ms", layer["snapio.decode"])
	res.set("snapio.mb_per_window", "MB", float64(len(w.frames[1]))/1e6)
	res.set("detect.walk_ms", "ms", layer["detect.walk"])
	res.set("detect.abnormal_devices", "count", perMean(func(c windowCounts) float64 { return float64(c.abnormal) }))
	res.set("health.dispatch_ms", "ms", layer["health.dispatch"])
	res.set("health.faulty_rows", "count", perMean(func(c windowCounts) float64 { return float64(c.faulty) }))
	res.set("health.quarantined", "count", perMean(func(c windowCounts) float64 { return float64(c.quarantined) }))
	res.set("motion.pair_ms", "ms", layer["motion.pair"])
	res.set("motion.graph_ms", "ms", layer["motion.graph"])
	res.set("motion.components_ms", "ms", layer["motion.components"])
	res.set("motion.enumerate_ms", "ms", layer["motion.enumerate"])
	res.set("motion.largest_component", "count", perMean(func(c windowCounts) float64 { return float64(c.largest) }))
	res.set("motion.maximal_motions", "count", perMean(func(c windowCounts) float64 { return float64(c.motions) }))
	res.set("core.characterize_ms", "ms", layer["core.characterize"])
	res.set("core.decide_ms", "ms", layer["core.decide"])
	for _, rule := range []string{"theorem5", "theorem6", "theorem7", "corollary8", "none"} {
		res.set("core.rule."+rule, "count", perMean(func(c windowCounts) float64 { return float64(c.rules[rule]) }))
	}
	res.set("dist.advance_ms", "ms", layer["dist.advance"])
	res.set("dist.rebuilt_share", "share", ratio(perMean(func(c windowCounts) float64 { return float64(c.rebuilt) }),
		perMean(func(c windowCounts) float64 { return float64(c.advanced) })))
	res.set("dist.decide_ms", "ms", layer["dist.decide"])
	res.set("dist.view_size", "count", perMean(func(c windowCounts) float64 { return c.viewSize }))
	hitRatio := 0.0
	if mir.dir != nil {
		built, hits := mir.dir.CacheStats()
		hitRatio = ratio(float64(hits), float64(built+hits))
	}
	res.set("dist.cache_hit_ratio", "share", hitRatio)
	res.set("dirnet.decide_window_ms", "ms", layer["dirnet.decide_window"])
	res.set("dirnet.kb_per_window", "KB", float64(dirAfter.BytesSent+dirAfter.BytesReceived-dirBefore.BytesSent-dirBefore.BytesReceived)/1e3/nw)
	res.set("dirnet.round_trips", "count", float64(dirAfter.RoundTrips-dirBefore.RoundTrips)/nw)
	res.set("dirnet.retries", "count", float64(dirAfter.Retries-dirBefore.Retries)/nw)
	res.set("dirnet.degraded_windows", "count", float64(dirAfter.Degraded-dirBefore.Degraded))

	sum := 0.0
	for _, name := range layerSum(w) {
		sum += layer[name]
	}
	res.set("anomalia.self_ms", "ms", mean(ticks)-sum)
	res.set("anomalia.allocs_per_window", "count", float64(allocs1-allocs0)/float64(len(ticks)))
	res.set("anomalia.cpu_ms_per_window", "ms", float64(cpu1-cpu0)/1e6/float64(len(ticks)))

	untracedP50, tracedP50 := median(ticks), median(traced)
	res.set("trace.untraced_tick_p50_ms", "ms", untracedP50)
	res.set("trace.traced_tick_p50_ms", "ms", tracedP50)
	res.set("trace.overhead_ms", "ms", tracedP50-untracedP50)
	res.set("trace.reconcile_error", "share", math.Abs(tracedP50-untracedP50)/untracedP50)

	// Phase 4: the single-threaded baseline, informational.
	serialTicks, err := serialBaseline(w, dur/4)
	if err != nil {
		return nil, err
	}
	res.set("serial.windows_per_s", "1/s", 1e3/mean(serialTicks))
	res.set("serial.tick_p50_ms", "ms", median(serialTicks))

	// Phase 5: exact-search accounting. quiet-1m runs exact mode itself;
	// mass-250k runs cheap mode, so there is nothing to count; wire-10k's
	// gated loop runs cheap mode, so a centralized exact-mode monitor
	// replays the same degraded stream under a deadline.
	var ex exactStats
	switch {
	case w.exact:
		ex.windows = len(per)
		for _, c := range per {
			ex.collections += c.collections
			ex.budget += c.budget
		}
	case w.wire:
		ex = exactProbe(w, dur)
		fmt.Fprintf(log, "exact probe: %d windows completed, %d lost to ErrBudget, slowest %.0f ms, window in flight at the deadline searching for %.0f ms\n",
			ex.windows, ex.budget, ex.slowest, ex.stallMs)
	}
	res.set("core.collections_tested", "count", ratio(float64(ex.collections), float64(ex.windows)))
	res.set("core.budget_errors", "count", float64(ex.budget))
	res.set("core.exact_windows", "count", float64(ex.windows))
	res.set("core.exact_stall_ms", "ms", ex.stallMs)

	if spansPath == "" {
		spansPath = filepath.Join(buildDir(), "spans", w.name+".jsonl")
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	verdict := "within"
	if math.Abs(tracedP50-untracedP50)/untracedP50 > reconcileTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(log, "probed %d windows, traced %d, untraced %d; reconciliation: traced p50 %.3f ms vs untraced %.3f ms (%s the %.0f%% tolerance); %d probe mismatches; spans in %s\n",
		len(per), len(traced), len(ticks), tracedP50, untracedP50, verdict, 100*reconcileTolerance, mismatch, spansPath)
	return res, nil
}

// windowCounts are one probed window's counts: the mirror's, plus the
// monitor's verdict rules and exact-search work.
type windowCounts struct {
	probeStats
	rules               map[string]int
	collections, budget int
}

func countsOf(ps probeStats, out *anomalia.Outcome, err error) windowCounts {
	c := windowCounts{probeStats: ps, rules: map[string]int{}}
	if errors.Is(err, core.ErrBudget) {
		c.budget = 1
	}
	if out != nil {
		for _, r := range out.Reports {
			c.rules[r.Rule]++
			c.collections += r.Cost.CollectionsTested
		}
	}
	return c
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// reported lists the devices an Outcome decided, in device order: the
// window's abnormal set.
func reported(out *anomalia.Outcome) []int {
	if out == nil {
		return nil
	}
	ids := make([]int, len(out.Reports))
	for i, r := range out.Reports {
		ids[i] = r.Device
	}
	return ids
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// serialBaseline reruns the workload on one CPU with a one-worker
// detector walk.
func serialBaseline(w *workload, dur time.Duration) ([]float64, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	freshHeap()
	s, err := openFeed(w, true, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	for i := 0; i < warmWindows; i++ {
		if _, _, _, err := s.step(); err != nil {
			return nil, err
		}
	}
	var ticks []float64
	start := time.Now()
	for time.Since(start) < dur {
		lat, _, _, err := s.step()
		if err != nil {
			return nil, err
		}
		ticks = append(ticks, float64(lat.wall)/1e6)
	}
	return ticks, nil
}

type exactStats struct {
	windows, budget, collections int
	slowest, stallMs             float64
}

// exactProbe replays the workload through a centralized exact-mode
// monitor with the library's default search budget, from the training
// frame on, and counts what the search did in the windows it completed
// before the deadline, plus how long the window still in flight at the
// deadline had been searching. One exact window can take tens of
// seconds, so the replay runs on its own goroutine; a search still
// running at the deadline is abandoned to the process exit, which is
// why this phase runs last.
func exactProbe(w *workload, dur time.Duration) exactStats {
	type win struct {
		ms          float64
		budget      bool
		collections int
	}
	ch := make(chan win)
	stop := make(chan struct{})
	var inFlight atomic.Int64 // start of the window being searched, ns since epoch; 0 between windows
	epoch := time.Now()
	exactW := *w
	exactW.cfg = append(slices.Clone(w.cfg), anomalia.WithExact(true))
	go func() {
		defer close(ch)
		s, err := openFeed(&exactW, false, true)
		if err != nil {
			return
		}
		defer s.close()
		for {
			inFlight.Store(int64(time.Since(epoch)))
			lat, _, out, err := s.step()
			inFlight.Store(0)
			v := win{ms: float64(lat.wall) / 1e6, budget: errors.Is(err, core.ErrBudget)}
			if out != nil {
				for _, r := range out.Reports {
					v.collections += r.Cost.CollectionsTested
				}
			}
			select {
			case ch <- v:
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)
	var st exactStats
	deadline := time.After(dur)
	for {
		select {
		case v, ok := <-ch:
			if !ok {
				return st
			}
			st.windows++
			st.collections += v.collections
			st.slowest = max(st.slowest, v.ms)
			if v.budget {
				st.budget++
			}
		case <-deadline:
			if started := inFlight.Load(); started > 0 {
				st.stallMs = float64(int64(time.Since(epoch))-started) / 1e6
			}
			return st
		}
	}
}
