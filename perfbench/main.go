// Command perfbench is the repository's end-to-end benchmark: it
// replays generated snapio snapshot streams through anomalia.Monitor,
// checks every window's verdicts against a reference monitor, and
// prints one JSON result line.
//
//	bash perfbench/run.sh --workload quiet-1m --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// per-layer breakdown instead. The load is a closed loop: one stream,
// one monitor, at most one directory connection. Input generation runs
// before any timed phase and is excluded from every metric.
//
// The gated timings are process CPU time (every thread, the Go
// runtime's and the in-process shard's included), not wall-clock time:
// on a few shared vCPUs the wall clock of the same code moved 2x
// between runs, while CPU time excludes the time the host hands the
// vCPUs to someone else. They are then scaled to a reference host
// speed measured by a calibration kernel (calibrate.go). Wall-clock
// figures are logged beside them, and the traced run reports the
// wall-clock tick (trace.*).
// BENCHMARK.json lists the metrics; spec.json records the workload
// parameters and the layer-to-metric mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: quiet-1m, mass-250k or wire-10k")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed-loop length")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	smoke := fs.Bool("smoke", false, "run every workload at toy size and check the printed metric names against BENCHMARK.json")
	spans := fs.String("spans", "", "with --trace 1: write the recorded spans as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		return runSmoke("BENCHMARK.json", stdout)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	res, err := measure(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullSizes(), *spans, stdout)
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func measure(name string, seed int64, dur time.Duration, traced bool, sz sizes, spansPath string, log io.Writer) (*result, error) {
	t0 := time.Now()
	w, err := buildWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "workload %s seed %d: %d devices x %d services, %d frames of %.2f MB generated in %.1fs\n",
		name, seed, w.devices, w.services, len(w.frames), float64(len(w.frames[0]))/1e6, time.Since(t0).Seconds())
	if traced {
		return runTraced(w, dur, spansPath, log)
	}
	return runEndToEnd(w, dur, log)
}

// warmWindows run after training and before any timed phase: they
// allocate the monitor's second state buffer and, on wire-10k, dial
// the shard and ship its initial window.
const warmWindows = 2

// setupReps is how many set-ups setup_s takes the median of: more
// where one set-up takes milliseconds and timer noise dominates. One
// more set-up runs first and is not counted: it alone pays for
// faulting in the heap's pages.
func setupReps(w *workload) int {
	if w.devices >= 100_000 {
		return 7
	}
	return 21
}

func runEndToEnd(w *workload, dur time.Duration, log io.Writer) (*result, error) {
	g, err := newGate(w)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	freshHeap()
	debug.FreeOSMemory()
	resetPeakRSS()
	cal.burst()

	var setups, setupWall []float64
	var s *feed
	for i := 0; i <= setupReps(w); i++ {
		if s != nil {
			s.close()
			s = nil
		}
		freshHeap()
		t, c := time.Now(), cpuTime()
		s, err = openFeed(w, false, false)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, float64(cpuTime()-c)/1e9)
			setupWall = append(setupWall, time.Since(t).Seconds())
		}
	}
	defer s.close()

	attempted := 0
	for t := 1; t <= warmWindows; t++ {
		_, _, out, err := s.step()
		g.observe(t, out, err)
		attempted++
	}
	freshHeap()
	var ticks, verdictTicks, wallTicks []float64
	start := time.Now()
	for t := warmWindows + 1; time.Since(start) < dur; t++ {
		c, _, out, err := s.step()
		g.observe(t, out, err)
		attempted++
		ms := float64(c.cpu) / 1e6
		ticks = append(ticks, ms)
		wallTicks = append(wallTicks, float64(c.wall)/1e6)
		if out != nil {
			verdictTicks = append(verdictTicks, ms)
		}
		cal.due()
	}
	loopWall := time.Since(start).Seconds()
	cal.burst()
	rss := peakRSSMB()
	if err := g.finish(); err != nil {
		return nil, err
	}
	if len(ticks) == 0 || len(verdictTicks) == 0 {
		return nil, errNoWindows
	}
	res := &result{Correct: g.wrong == 0, Attempted: attempted, Failed: g.failed}
	k := cal.scale()
	tailQ, tail := tailPercentile(ticks)
	loopCPU := mean(ticks) * float64(len(ticks)) / 1e3
	res.set("windows_per_cpu_s", "1/s", 1e3/(k*mean(ticks)))
	res.set("tick_cpu_p50_ms", "ms", k*median(ticks))
	res.set("tick_cpu_tail_ms", "ms", k*tail)
	res.set("verdict_cpu_p50_ms", "ms", k*median(verdictTicks))
	res.set("success_rate", "share", float64(attempted-g.failed)/float64(attempted))
	res.set("setup_s", "s", k*median(setups))
	res.set("peak_rss_mb", "MB", rss)
	fmt.Fprintf(log, "timed loop: %d windows (%d with verdicts); tick_cpu_tail_ms is p%d over %d windows; %d wrong verdicts, %d failed of %d attempted\n",
		len(ticks), len(verdictTicks), tailQ, len(ticks), g.wrong, g.failed, attempted)
	fmt.Fprintf(log, "speed: calibration kernel p25 %.3f ms (median %.3f) over %d runs, CPU times scaled by %.4f; unscaled CPU tick p50 %.3f ms\n",
		cal.speed()/1e6, median(cal.reps)/1e6, len(cal.reps), k, median(ticks))
	fmt.Fprintf(log, "wall clock, not gated: %.2f windows/s, tick p50 %.3f ms, set-up %.4f s, %.2f CPUs busy in windows\n",
		float64(len(ticks))/loopWall, median(wallTicks), median(setupWall), loopCPU/loopWall)
	return res, nil
}

// median of a sample (mean of the middle pair for even sizes).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile q with at least
// ten samples above it, and the nearest-rank value at q.
func tailPercentile(v []float64) (int, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := int(math.Floor(100 * float64(n-10) / float64(n)))
	if q < 50 {
		q = 50
	}
	k := int(math.Ceil(float64(q)/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return q, s[k]
}
