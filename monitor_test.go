package anomalia

import (
	"errors"
	"math"
	"testing"
)

// fleetSnapshot builds a snapshot for n devices at the given base level,
// with device-specific overrides.
func fleetSnapshot(n int, base float64, overrides map[int]float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		level := base
		if v, ok := overrides[i]; ok {
			level = v
		}
		out[i] = []float64{level}
	}
	return out
}

func TestMonitorLifecycle(t *testing.T) {
	t.Parallel()

	const n = 10
	m, err := NewMonitor(n, 1, WithRadius(0.03), WithTau(3))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy windows: no outcome.
	for i := 0; i < 5; i++ {
		out, err := m.Observe(fleetSnapshot(n, 0.95, nil))
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			t.Fatalf("healthy window %d produced outcome %+v", i, out)
		}
	}
	if m.Time() != 5 {
		t.Errorf("Time = %d, want 5", m.Time())
	}

	// Devices 0-4 drop together (massive), device 9 drops alone.
	out, err := m.Observe(fleetSnapshot(n, 0.95, map[int]float64{
		0: 0.5, 1: 0.5, 2: 0.51, 3: 0.49, 4: 0.5,
		9: 0.2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("faulty window produced no outcome")
	}
	if len(out.Massive) != 5 {
		t.Errorf("Massive = %v, want devices 0-4", out.Massive)
	}
	if len(out.Isolated) != 1 || out.Isolated[0] != 9 {
		t.Errorf("Isolated = %v, want [9]", out.Isolated)
	}
}

func TestMonitorFirstWindowTrainsOnly(t *testing.T) {
	t.Parallel()

	m, err := NewMonitor(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Even a wild first snapshot cannot be judged: no history.
	out, err := m.Observe(fleetSnapshot(5, 0.1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Error("first snapshot must only train")
	}
}

func TestMonitorValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewMonitor(1, 1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("1 device error = %v", err)
	}
	if _, err := NewMonitor(5, 0); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("0 services error = %v", err)
	}
	if _, err := NewMonitor(5, 1, WithRadius(0.5)); err == nil {
		t.Error("invalid radius must error")
	}
	if _, err := NewMonitor(5, 1, WithRadius(math.NaN())); err == nil {
		t.Error("NaN radius must error")
	}
	if _, err := NewMonitor(5, 1, WithTau(0)); !errors.Is(err, ErrInvalidInput) {
		t.Error("invalid tau must error")
	}
	if _, err := NewMonitor(5, 1, WithDetectorFactory(func(int, int) (Detector, error) {
		return nil, nil
	})); err == nil {
		t.Error("nil detector factory product must error")
	}

	m, err := NewMonitor(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(fleetSnapshot(4, 0.9, nil)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("short snapshot error = %v", err)
	}
	if _, err := m.Observe([][]float64{{0.9}, {0.9}, {0.9}, {0.9}, {0.9}}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("ragged snapshot error = %v", err)
	}
}

func TestMonitorCustomDetector(t *testing.T) {
	t.Parallel()

	m, err := NewMonitor(6, 1,
		WithDetectorFactory(func(int, int) (Detector, error) {
			return NewEWMADetector(0.3, 6, 0.01, 3)
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Observe(fleetSnapshot(6, 0.9, nil)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.Observe(fleetSnapshot(6, 0.9, map[int]float64{2: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || len(out.Isolated) != 1 || out.Isolated[0] != 2 {
		t.Fatalf("outcome = %+v, want device 2 isolated", out)
	}
}

func TestMonitorReset(t *testing.T) {
	t.Parallel()

	m, err := NewMonitor(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Observe(fleetSnapshot(4, 0.9, nil)); err != nil {
			t.Fatal(err)
		}
	}
	m.Reset()
	if m.Time() != 0 {
		t.Errorf("Time after reset = %d", m.Time())
	}
	// Post-reset, a wild snapshot is a training sample again.
	out, err := m.Observe(fleetSnapshot(4, 0.2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Error("first post-reset snapshot must only train")
	}
}
