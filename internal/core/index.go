package core

// sideIndex is the side-key incidence of a compact pair system, built once
// per sweep, chain level or virtual instance and shared by everything that
// looks at neighbors there. Each distinct side key gets a dense slot in
// first-seen order; the items on a slot are listed in ascending order.
// Slots are internal: anything that depends on key order (virtual copies,
// derived keys) reads the key values in keys.
type sideIndex struct {
	slots [][2]int32 // item → slots of its side A and side B keys
	keys  []int64    // slot → key
	start []int32    // the items on slot k are items[start[k]:start[k+1]]
	items []int32
}

// newSideIndex indexes pairs.
func newSideIndex(pairs [][2]int64) *sideIndex {
	n := len(pairs)
	ix := &sideIndex{slots: make([][2]int32, n), keys: make([]int64, 0, n)}
	slotOf := make(map[int64]int32, n)
	count := make([]int32, 0, n+1)
	for e, pr := range pairs {
		for side, key := range pr {
			k, ok := slotOf[key]
			if !ok {
				k = int32(len(ix.keys))
				slotOf[key] = k
				ix.keys = append(ix.keys, key)
				count = append(count, 0)
			}
			ix.slots[e][side] = k
			count[k]++
		}
	}
	ix.start = make([]int32, len(ix.keys)+1)
	for k, c := range count {
		ix.start[k+1] = ix.start[k] + c
	}
	// count becomes the fill cursor of each slot.
	copy(count, ix.start)
	ix.items = make([]int32, 2*n)
	for e, sl := range ix.slots {
		for _, k := range sl {
			ix.items[count[k]] = int32(e)
			count[k]++
		}
	}
	return ix
}

// at returns the items on slot k, ascending.
func (ix *sideIndex) at(k int32) []int32 { return ix.items[ix.start[k]:ix.start[k+1]] }

// size returns the number of items on slot k.
func (ix *sideIndex) size(k int32) int { return int(ix.start[k+1] - ix.start[k]) }

// degree returns item e's conflict degree in the indexed system.
func (ix *sideIndex) degree(e int) int {
	return ix.size(ix.slots[e][0]) + ix.size(ix.slots[e][1]) - 2
}

// degrees returns every item's conflict degree among the items with
// active[e] set (0 for the others); active nil means every item.
func (ix *sideIndex) degrees(active []bool) []int {
	count := make([]int32, len(ix.keys))
	for e, sl := range ix.slots {
		if active == nil || active[e] {
			count[sl[0]]++
			count[sl[1]]++
		}
	}
	deg := make([]int, len(ix.slots))
	for e, sl := range ix.slots {
		if active == nil || active[e] {
			deg[e] = int(count[sl[0]] + count[sl[1]] - 2)
		}
	}
	return deg
}

// maxDegree returns the largest conflict degree in the indexed system.
func (ix *sideIndex) maxDegree() int {
	d := 0
	for e := range ix.slots {
		d = max(d, ix.degree(e))
	}
	return d
}

// gather returns xs[items[0]], xs[items[1]], …: a parent array restricted
// to a compact sub-instance.
func gather[T any](xs []T, items []int32) []T {
	out := make([]T, len(items))
	for i, e := range items {
		out[i] = xs[e]
	}
	return out
}

// compactActive returns the items with active[e] set, ascending, or nil
// when every item is active (active nil included): the identity needs no
// map.
func compactActive(active []bool) []int32 {
	orig := []int32{}
	for e, a := range active {
		if a {
			orig = append(orig, int32(e))
		}
	}
	if len(orig) == len(active) {
		return nil
	}
	return orig
}

// scatter maps a result over compact items back to the m items they came
// from (orig nil: the identity), −1 for the others.
func scatter(xs []int, orig []int32, m int) []int {
	if orig == nil {
		return xs
	}
	out := make([]int, m)
	for e := range out {
		out[e] = -1
	}
	for i, e := range orig {
		out[e] = xs[i]
	}
	return out
}

func anyActive(active []bool) bool {
	for _, a := range active {
		if a {
			return true
		}
	}
	return false
}
