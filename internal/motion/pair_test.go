package motion

import (
	"errors"
	"math"
	"testing"

	"anomalia/internal/space"
)

func TestValidateRadius(t *testing.T) {
	t.Parallel()

	for _, r := range []float64{0, 0.1, 0.2499} {
		if err := ValidateRadius(r); err != nil {
			t.Errorf("ValidateRadius(%v) = %v, want nil", r, err)
		}
	}
	for _, r := range []float64{-0.01, 0.25, 1, math.NaN()} {
		if err := ValidateRadius(r); !errors.Is(err, ErrRadius) {
			t.Errorf("ValidateRadius(%v) = %v, want ErrRadius", r, err)
		}
	}
}

func TestNewPairValidation(t *testing.T) {
	t.Parallel()

	a, err := space.NewState(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := space.NewState(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := space.NewState(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPair(a, b); !errors.Is(err, ErrMismatchedStates) {
		t.Errorf("size mismatch error = %v", err)
	}
	if _, err := NewPair(a, c); !errors.Is(err, ErrMismatchedStates) {
		t.Errorf("dim mismatch error = %v", err)
	}
	if _, err := NewPair(nil, a); !errors.Is(err, ErrMismatchedStates) {
		t.Errorf("nil state error = %v", err)
	}
	p, err := NewPair(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 || p.Dim() != 2 {
		t.Errorf("N/Dim = %d/%d", p.N(), p.Dim())
	}
}

func TestAdjacent(t *testing.T) {
	t.Parallel()

	prev, err := space.StateFromPoints([][]float64{{0.1}, {0.25}, {0.5}})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.StateFromPoints([][]float64{{0.6}, {0.75}, {0.62}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	const r = 0.1
	// 0-1: close at both times (0.15 <= 0.2).
	if !p.Adjacent(0, 1, r) {
		t.Error("0-1 must be adjacent")
	}
	// 0-2: far at prev (0.4), close at cur (0.02) -> not adjacent.
	if p.Adjacent(0, 2, r) {
		t.Error("0-2 must not be adjacent (far at k-1)")
	}
	// 1-2: close at prev (0.25), 0.25 > 0.2 -> not adjacent.
	if p.Adjacent(1, 2, r) {
		t.Error("1-2 must not be adjacent")
	}
	// Self-adjacency.
	if !p.Adjacent(1, 1, r) {
		t.Error("device must be adjacent to itself")
	}
}

func TestAdjacentBoundaryInclusive(t *testing.T) {
	t.Parallel()

	prev, err := space.StateFromPoints([][]float64{{0.1}, {0.3}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPair(prev, prev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Distance exactly 2r must count as adjacent (Definition 1 uses <=).
	if !p.Adjacent(0, 1, 0.1) {
		t.Error("distance exactly 2r must be adjacent")
	}
}

func TestConsistentAt(t *testing.T) {
	t.Parallel()

	s, err := space.StateFromPoints([][]float64{
		{0.1, 0.1}, {0.25, 0.1}, {0.1, 0.35}, {0.35, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	const r = 0.1
	tests := []struct {
		name string
		ids  []int
		want bool
	}{
		{"empty", nil, true},
		{"singleton", []int{2}, true},
		{"pair within 2r", []int{0, 1}, true},
		{"pair beyond 2r on y", []int{0, 2}, false},
		{"triple too wide", []int{0, 1, 3}, false},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := ConsistentAt(s, tt.ids, r); got != tt.want {
				t.Errorf("ConsistentAt(%v) = %v, want %v", tt.ids, got, tt.want)
			}
		})
	}
}

func TestConsistentMotionRequiresBothTimes(t *testing.T) {
	t.Parallel()

	prev, err := space.StateFromPoints([][]float64{{0.1}, {0.15}})
	if err != nil {
		t.Fatal(err)
	}
	curFar, err := space.StateFromPoints([][]float64{{0.1}, {0.9}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPair(prev, curFar)
	if err != nil {
		t.Fatal(err)
	}
	if p.ConsistentMotion([]int{0, 1}, 0.1) {
		t.Error("motion must require consistency at both times")
	}
	p2, err := NewPair(prev, prev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !p2.ConsistentMotion([]int{0, 1}, 0.1) {
		t.Error("consistent at both times must be a motion")
	}
}

func TestDenseHelpers(t *testing.T) {
	t.Parallel()

	if Dense(3, 3) {
		t.Error("|B| = τ must be sparse (Definition 4 uses >)")
	}
	if !Dense(4, 3) {
		t.Error("|B| = τ+1 must be dense")
	}
	motions := [][]int{{1}, {1, 2, 3, 4}, {5, 6}, {7, 8, 9, 10, 11}}
	dense := DenseOf(motions, 3)
	if len(dense) != 2 || len(dense[0]) != 4 || len(dense[1]) != 5 {
		t.Errorf("DenseOf = %v", dense)
	}
	if DenseOf(nil, 1) != nil {
		t.Error("DenseOf(nil) must be nil")
	}
}
