package sets

// Sorted is an ascending, duplicate-free list of int32 indices — the
// neighbour-row representation of the sparse motion-graph adjacency
// (internal/motion stores one Sorted view per vertex into a shared CSR
// arena) and the component-rank representation of a maximal motion
// (motion.Graph.MaximalMotionsOfComponent). int32 keeps lists at half
// the footprint of []int while covering every realistic vertex count;
// the motion graph's local indices are bounded by the device population.
//
// A Sorted is a plain slice: rows and motions alias their arenas and
// must be treated as read-only by consumers, mirroring the ownership
// rule of motion.Graph.Ids.
type Sorted []int32

// Len returns the number of elements.
func (s Sorted) Len() int { return len(s) }

// Has reports whether v is an element, by binary search.
func (s Sorted) Has(v int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// ForEach calls fn for every element in increasing order. It stops early
// if fn returns false.
func (s Sorted) ForEach(fn func(v int32) bool) {
	for _, v := range s {
		if !fn(v) {
			return
		}
	}
}

// IntersectInto appends the intersection s ∩ o to dst and returns the
// extended slice. dst must not alias s or o.
func (s Sorted) IntersectInto(o, dst Sorted) Sorted {
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			i++
		case s[i] > o[j]:
			j++
		default:
			dst = append(dst, s[i])
			i++
			j++
		}
	}
	return dst
}

// InsertInto appends the elements of s with v inserted in order to dst
// and returns the extended slice (v is not duplicated when already
// present). dst must not alias s.
func (s Sorted) InsertInto(v int32, dst Sorted) Sorted {
	i := 0
	for ; i < len(s) && s[i] < v; i++ {
		dst = append(dst, s[i])
	}
	dst = append(dst, v)
	if i < len(s) && s[i] == v {
		i++
	}
	return append(dst, s[i:]...)
}
