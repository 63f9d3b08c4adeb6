package dist

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/paperfig"
	"anomalia/internal/scenario"
)

// TestAgreementWithCentralized is the subsystem's central correctness
// test, mirroring core's oracle cross-check one layer up: on seeded
// scenario sweeps (error load A, isolated probability G, concomitant
// errors on and off), every abnormal device deciding on its fetched 4r
// view must reach the verdict the centralized characterizer — itself
// proven equal to the omniscient oracle — reaches with the full abnormal
// set. This is the paper's distributed-deployment claim end to end.
func TestAgreementWithCentralized(t *testing.T) {
	t.Parallel()

	const (
		n     = 300
		r     = 0.03
		tau   = 3
		steps = 2
	)
	coreCfg := core.Config{R: r, Tau: tau, Exact: true}
	for _, a := range []int{1, 8, 25} {
		for _, g := range []float64{0, 0.5, 1} {
			for _, concomitant := range []bool{false, true} {
				name := fmt.Sprintf("A=%d/G=%g/concomitant=%v", a, g, concomitant)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					gen, err := scenario.New(scenario.Config{
						N: n, D: 2, R: r, Tau: tau, A: a, G: g,
						Concomitant: concomitant, MaxShift: 2 * r,
						Seed: int64(1000*a + int(10*g) + 7),
					})
					if err != nil {
						t.Fatal(err)
					}
					for s := 0; s < steps; s++ {
						step, err := gen.Step()
						if err != nil {
							t.Fatal(err)
						}
						if len(step.Abnormal) == 0 {
							continue
						}
						central, err := core.New(step.Pair, step.Abnormal, coreCfg)
						if err != nil {
							t.Fatal(err)
						}
						want := make(map[int]core.Class, len(step.Abnormal))
						results, err := central.CharacterizeAll()
						if err != nil {
							t.Fatal(err)
						}
						for _, res := range results {
							want[res.Device] = res.Class
						}

						dir, err := NewDirectory(step.Pair, step.Abnormal, r)
						if err != nil {
							t.Fatal(err)
						}
						for _, j := range step.Abnormal {
							res, st, err := Decide(dir, j, coreCfg)
							if err != nil {
								t.Fatalf("window %d device %d: %v", s, j, err)
							}
							if res.Class != want[j] {
								t.Errorf("window %d device %d: distributed %v != centralized %v",
									s, j, res.Class, want[j])
							}
							if st.ViewSize < 1 || st.Trajectories != st.ViewSize-1 {
								t.Errorf("window %d device %d: implausible stats %+v", s, j, st)
							}
						}
					}
				})
			}
		}
	}
}

// TestDecideAllMatchesDecide: the batched window entry point must return
// exactly the per-device results and bills, in device order, with the
// correct total.
func TestDecideAllMatchesDecide(t *testing.T) {
	t.Parallel()

	const r = 0.03
	coreCfg := core.Config{R: r, Tau: 3, Exact: true}
	step := genWindow(t, scenario.Config{
		N: 400, D: 2, R: r, Tau: 3, A: 25, G: 0.3,
		Concomitant: true, MaxShift: 2 * r, Seed: 21,
	})
	dir, err := NewDirectory(step.Pair, step.Abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	decisions, total, err := DecideAll(dir, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != len(step.Abnormal) {
		t.Fatalf("%d decisions for %d abnormal devices", len(decisions), len(step.Abnormal))
	}
	var sum Stats
	for i, dec := range decisions {
		j := step.Abnormal[i]
		if dec.Result.Device != j {
			t.Fatalf("decision %d is for device %d, want %d (device order)", i, dec.Result.Device, j)
		}
		res, st, err := Decide(dir, j, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Result.Class != res.Class || dec.Result.Rule != res.Rule {
			t.Errorf("device %d: batched (%v, %v) != standalone (%v, %v)",
				j, dec.Result.Class, dec.Result.Rule, res.Class, res.Rule)
		}
		if dec.Stats != st {
			t.Errorf("device %d: batched stats %+v != standalone %+v", j, dec.Stats, st)
		}
		sum.Add(dec.Stats)
	}
	if total != sum {
		t.Errorf("total %+v != summed per-device stats %+v", total, sum)
	}
}

// TestDecideAllEmpty: a window with no abnormal devices yields no
// decisions and a zero bill — but still rejects invalid configurations,
// exactly like the centralized path.
func TestDecideAllEmpty(t *testing.T) {
	t.Parallel()

	pair := pairOf(t, [][]float64{{0.5, 0.5}, {0.6, 0.6}}, [][]float64{{0.5, 0.5}, {0.6, 0.6}})
	dir, err := NewDirectory(pair, nil, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	decisions, total, err := DecideAll(dir, core.Config{R: 0.03, Tau: 1, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 0 || total != (Stats{}) {
		t.Errorf("empty window: decisions=%v total=%+v", decisions, total)
	}
	if _, _, err := DecideAll(dir, core.Config{R: 0.03, Tau: 0}); err == nil {
		t.Error("empty window must still reject tau = 0")
	}
	if _, _, err := DecideAll(dir, core.Config{R: 0.5, Tau: 1}); err == nil {
		t.Error("empty window must still reject r = 0.5")
	}
}

// TestDecideRangeSplits: every split of a window into at most four
// contiguous ranges (empty ones included) decides exactly DecideAll's
// slices, so a shard fleet's merged answer equals the in-process batch
// however the window is cut. Out-of-window ranges are rejected with
// ErrConfig, and a bad config is rejected even on an empty range.
func TestDecideRangeSplits(t *testing.T) {
	t.Parallel()

	const r = 0.03
	coreCfg := core.Config{R: r, Tau: 3, Exact: true}
	step := genWindow(t, scenario.Config{
		N: 200, D: 2, R: r, Tau: 3, A: 6, G: 0.3,
		Concomitant: true, MaxShift: 2 * r, Seed: 8,
	})
	dir, err := NewDirectory(step.Pair, step.Abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotal, err := DecideAll(dir, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	m := len(want)
	if m < 8 {
		t.Fatalf("window has %d abnormal devices, want a few groups' worth", m)
	}
	for a := 0; a <= m; a++ {
		for b := a; b <= m; b++ {
			for c := b; c <= m; c++ {
				var got []Decision
				var total Stats
				for _, rg := range [][2]int{{0, a}, {a, b}, {b, c}, {c, m}} {
					decs, st, err := DecideRange(dir, coreCfg, rg[0], rg[1])
					if err != nil {
						t.Fatalf("range %v: %v", rg, err)
					}
					got = append(got, decs...)
					total.Add(st)
				}
				if !reflect.DeepEqual(got, want) || total != wantTotal {
					t.Fatalf("split at %d/%d/%d differs from DecideAll", a, b, c)
				}
			}
		}
	}
	for _, rg := range [][2]int{{-1, 1}, {0, m + 1}, {2, 1}} {
		if _, _, err := DecideRange(dir, coreCfg, rg[0], rg[1]); !errors.Is(err, ErrConfig) {
			t.Errorf("range %v: err = %v, want ErrConfig", rg, err)
		}
	}
	if _, _, err := DecideRange(dir, core.Config{R: r, Tau: 0}, 1, 1); !errors.Is(err, core.ErrConfig) {
		t.Errorf("tau = 0 on an empty range: err = %v, want core.ErrConfig", err)
	}
}

// TestDecideAllNamesLowestFailure: when several view groups fail (three
// far-apart copies of the paper's Figure 5, where only the Theorem 7
// search decides, under a budget of one node), DecideAll must name the
// lowest failing device on every run, whichever worker fails first.
func TestDecideAllNamesLowestFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))

	fig, err := paperfig.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// The copies sit 0.45 apart on the second axis, beyond the 4r = 0.4
	// view radius, so each forms its own view group.
	var prev, cur [][]float64
	for _, y := range []float64{0.05, 0.5, 0.95} {
		for i := 0; i < fig.Pair.N(); i++ {
			prev = append(prev, []float64{fig.Pair.Prev.At(i)[0], y})
			cur = append(cur, []float64{fig.Pair.Cur.At(i)[0], y})
		}
	}
	pair := pairOf(t, prev, cur)
	abnormal := make([]int, pair.N())
	for i := range abnormal {
		abnormal[i] = i
	}
	dir, err := NewDirectory(pair, abnormal, fig.R)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{R: fig.R, Tau: fig.Tau, Exact: true, Budget: 1}

	// Reference: the first device in order whose own decision fails.
	var want string
	failing := map[int]bool{}
	for _, j := range abnormal {
		if _, _, err := Decide(dir, j, cfg); err != nil {
			if want == "" {
				want = fmt.Errorf("device %d: %w", j, err).Error()
			}
			failing[j/fig.Pair.N()] = true
		}
	}
	if len(failing) < 2 {
		t.Fatalf("failures in %d copies, want several failing groups", len(failing))
	}
	for run := 0; run < 50; run++ {
		_, _, err := DecideAll(dir, cfg)
		if !errors.Is(err, core.ErrBudget) || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %q", run, err, want)
		}
	}
}

// TestDecideRejectsUndersizedDirectory: deciding at a radius larger than
// the directory was built for would silently shrink views below the 4r
// locality requirement, so it must error instead.
func TestDecideRejectsUndersizedDirectory(t *testing.T) {
	t.Parallel()

	pair := pairOf(t, [][]float64{{0.5, 0.5}, {0.52, 0.52}}, [][]float64{{0.3, 0.3}, {0.32, 0.32}})
	dir, err := NewDirectory(pair, []int{0, 1}, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decide(dir, 0, core.Config{R: 0.1, Tau: 1, Exact: true}); err == nil {
		t.Error("Decide must reject R = 0.1 against a directory built for r = 0.03")
	}
	if _, _, err := DecideAll(dir, core.Config{R: 0.1, Tau: 1, Exact: true}); err == nil {
		t.Error("DecideAll must reject R = 0.1 against a directory built for r = 0.03")
	}
	// Deciding at a smaller radius is safe: views are supersets.
	if _, _, err := Decide(dir, 0, core.Config{R: 0.01, Tau: 1, Exact: true}); err != nil {
		t.Errorf("Decide at a smaller radius must work: %v", err)
	}
}
