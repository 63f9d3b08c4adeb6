package anomalia

import (
	"math"
	"testing"

	"anomalia/internal/scenario"
)

// TestDistributedAgreesWithCentralized: the WithDistributed path (sharded
// directory + per-device 4r views) must reach exactly the verdicts of the
// default in-process characterization, and report the traffic it
// generated.
func TestDistributedAgreesWithCentralized(t *testing.T) {
	t.Parallel()

	gen, err := scenario.New(scenario.Config{
		N: 300, D: 2, R: 0.03, Tau: 3, A: 15, G: 0.3,
		Concomitant: true, MaxShift: 0.06, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		step, err := gen.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(step.Abnormal) == 0 {
			continue
		}
		n := step.Pair.N()
		prev := make([][]float64, n)
		cur := make([][]float64, n)
		for j := 0; j < n; j++ {
			prev[j] = step.Pair.Prev.At(j)
			cur[j] = step.Pair.Cur.At(j)
		}
		central, err := Characterize(prev, cur, step.Abnormal)
		if err != nil {
			t.Fatal(err)
		}
		distributed, err := Characterize(prev, cur, step.Abnormal, WithDistributed(true))
		if err != nil {
			t.Fatal(err)
		}
		if len(central.Reports) != len(distributed.Reports) {
			t.Fatalf("window %d: %d centralized vs %d distributed reports",
				s, len(central.Reports), len(distributed.Reports))
		}
		for i := range central.Reports {
			c, d := central.Reports[i], distributed.Reports[i]
			if c.Device != d.Device || c.Class != d.Class {
				t.Errorf("window %d: centralized (%d, %v) != distributed (%d, %v)",
					s, c.Device, c.Class, d.Device, d.Class)
			}
		}
		if central.Dist != nil {
			t.Error("centralized outcome must not carry directory stats")
		}
		if distributed.Dist == nil {
			t.Fatal("distributed outcome is missing directory stats")
		}
		if distributed.Dist.Messages < 2*len(distributed.Reports) {
			t.Errorf("window %d: %d messages for %d devices, want >= 2 each",
				s, distributed.Dist.Messages, len(distributed.Reports))
		}
	}
}

// TestDistributedDegenerateRadius: r = 0 is valid for the centralized
// path, so the distributed path must accept it too (the grid degenerates
// to one cell) and agree on the verdicts.
func TestDistributedDegenerateRadius(t *testing.T) {
	t.Parallel()

	// Devices 0-2 coincide and move together; device 3 moves alone. With
	// r = 0 only exactly-coincident trajectories are consistent.
	prev := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.8, 0.8}}
	cur := [][]float64{{0.2, 0.2}, {0.2, 0.2}, {0.2, 0.2}, {0.4, 0.4}}
	abnormal := []int{0, 1, 2, 3}
	central, err := Characterize(prev, cur, abnormal, WithRadius(0), WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := Characterize(prev, cur, abnormal, WithRadius(0), WithTau(1), WithDistributed(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := range central.Reports {
		c, d := central.Reports[i], distributed.Reports[i]
		if c.Device != d.Device || c.Class != d.Class {
			t.Errorf("r=0: centralized (%d, %v) != distributed (%d, %v)",
				c.Device, c.Class, d.Device, d.Class)
		}
	}
}

// TestDistributedRejectsBadConfigOnEmptyWindow: an empty abnormal set
// must not mask configuration errors in distributed mode.
func TestDistributedRejectsBadConfigOnEmptyWindow(t *testing.T) {
	t.Parallel()

	prev := [][]float64{{0.5, 0.5}, {0.6, 0.6}}
	cur := [][]float64{{0.5, 0.5}, {0.6, 0.6}}
	if _, err := Characterize(prev, cur, nil, WithTau(0), WithDistributed(true)); err == nil {
		t.Error("tau = 0 must be rejected even with no abnormal devices")
	}
	if _, err := Characterize(prev, cur, nil, WithRadius(0.5), WithDistributed(true)); err == nil {
		t.Error("r = 0.5 must be rejected even with no abnormal devices")
	}
}

// TestDistributedErrorParity: an invalid configuration must produce the
// same error in both modes, so callers debugging the distributed path
// see the parameter they actually set, not an internal grid complaint.
func TestDistributedErrorParity(t *testing.T) {
	t.Parallel()

	prev := [][]float64{{0.5, 0.5}, {0.6, 0.6}}
	cur := [][]float64{{0.5, 0.5}, {0.6, 0.6}}
	for _, opt := range []Option{WithRadius(-0.1), WithRadius(0.25), WithRadius(math.NaN()), WithTau(0)} {
		_, errCentral := Characterize(prev, cur, []int{0}, opt)
		_, errDist := Characterize(prev, cur, []int{0}, opt, WithDistributed(true))
		if errCentral == nil || errDist == nil {
			t.Fatalf("invalid config must fail both modes: central=%v dist=%v", errCentral, errDist)
		}
		if errCentral.Error() != errDist.Error() {
			t.Errorf("error mismatch: central %q vs distributed %q", errCentral, errDist)
		}
	}
}
