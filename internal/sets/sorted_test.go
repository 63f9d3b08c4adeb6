package sets

import (
	"math/rand"
	"testing"
)

func sortedOf(vs ...int32) Sorted { return Sorted(vs) }

func TestSortedHas(t *testing.T) {
	s := sortedOf(1, 3, 7, 8, 20)
	for _, v := range s {
		if !s.Has(v) {
			t.Errorf("Has(%d) = false, want true", v)
		}
	}
	for _, v := range []int32{-1, 0, 2, 9, 19, 21, 1 << 30} {
		if s.Has(v) {
			t.Errorf("Has(%d) = true, want false", v)
		}
	}
	if Sorted(nil).Has(0) {
		t.Error("empty Sorted claims membership")
	}
}

func TestSortedForEach(t *testing.T) {
	s := sortedOf(2, 4, 6)
	var got []int32
	s.ForEach(func(v int32) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 || got[0] != 2 || got[2] != 6 {
		t.Errorf("ForEach visited %v", got)
	}
	count := 0
	s.ForEach(func(v int32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("ForEach ignored early stop: %d visits", count)
	}
}

func TestSortedIntersectInto(t *testing.T) {
	a := sortedOf(1, 2, 5, 9, 12)
	b := sortedOf(0, 2, 9, 12, 40)
	got := a.IntersectInto(b, nil)
	want := sortedOf(2, 9, 12)
	if len(got) != len(want) {
		t.Fatalf("intersection %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("intersection %v, want %v", got, want)
		}
	}
	if out := a.IntersectInto(nil, nil); len(out) != 0 {
		t.Errorf("intersection with empty = %v", out)
	}
	// Duplicates in the second operand must not duplicate output (the
	// receiver is strictly increasing).
	if out := a.IntersectInto(sortedOf(2, 2, 2), nil); len(out) != 1 || out[0] != 2 {
		t.Errorf("intersection with duplicates = %v", out)
	}
}

func TestSortedInsertInto(t *testing.T) {
	s := sortedOf(1, 5, 9)
	for _, tc := range []struct {
		v    int32
		want Sorted
	}{
		{0, sortedOf(0, 1, 5, 9)},
		{1, sortedOf(1, 5, 9)},
		{6, sortedOf(1, 5, 6, 9)},
		{9, sortedOf(1, 5, 9)},
		{11, sortedOf(1, 5, 9, 11)},
	} {
		got := s.InsertInto(tc.v, nil)
		if len(got) != len(tc.want) {
			t.Fatalf("InsertInto(%d) = %v, want %v", tc.v, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("InsertInto(%d) = %v, want %v", tc.v, got, tc.want)
			}
		}
	}
	if got := Sorted(nil).InsertInto(4, nil); len(got) != 1 || got[0] != 4 {
		t.Errorf("InsertInto on empty = %v", got)
	}
}

func TestBitsResize(t *testing.T) {
	b := NewBits(100)
	b.Add(3)
	b.Add(99)
	b.Resize(10)
	if b.Universe() != 10 {
		t.Fatalf("universe %d after Resize(10)", b.Universe())
	}
	if !b.Empty() {
		t.Fatalf("Resize left members: %v", b)
	}
	b.Add(9)
	b.Resize(200)
	if b.Universe() != 200 || !b.Empty() {
		t.Fatalf("Resize(200): universe %d empty=%v", b.Universe(), b.Empty())
	}
	b.Add(150)
	if !b.Has(150) || b.Len() != 1 {
		t.Fatalf("membership after growth: %v", b)
	}
	b.Resize(-5)
	if b.Universe() != 0 || !b.Empty() {
		t.Fatalf("Resize(-5): universe %d", b.Universe())
	}
}

// TestSortedAgainstBitsOracle cross-checks the Sorted operations against
// the dense bitset algebra on random universes.
func TestSortedAgainstBitsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		ab, bb := NewBits(n), NewBits(n)
		var as, bs Sorted
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				ab.Add(v)
				as = append(as, int32(v))
			}
			if rng.Intn(3) == 0 {
				bb.Add(v)
				bs = append(bs, int32(v))
			}
		}
		for v := 0; v < n; v++ {
			if as.Has(int32(v)) != ab.Has(v) {
				t.Fatalf("trial %d: Has(%d) disagrees with bitset", trial, v)
			}
		}
		inter := as.IntersectInto(bs, nil)
		ib := ab.Clone()
		ib.And(bb)
		if len(inter) != ib.Len() {
			t.Fatalf("trial %d: intersection size %d, bitset says %d", trial, len(inter), ib.Len())
		}
		for _, v := range inter {
			if !ib.Has(int(v)) {
				t.Fatalf("trial %d: spurious intersection member %d", trial, v)
			}
		}
	}
}
