package merge

import (
	"container/heap"
	"context"
	"math/bits"
	"sort"
)

// Test oracles: the reference heap merge, the sparse-table range masks and
// the context-taking whole merge that the product once exported.

// MergeCtx is the unfiltered merge honoring ctx.
func MergeCtx(ctx context.Context, lists [][]int32) ([]Entry, error) {
	var out Output
	err := MergeInto(ctx, lists, 1, Records{}, &out)
	return out.SL, err
}

// MergeHeap is the original container/heap k-way merge, retained verbatim
// as the differential-testing oracle and benchmark baseline of the loser
// tree. Output is identical to Merge.
func MergeHeap(lists [][]int32) []Entry {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]Entry, 0, total)
	h := make(mergeHeap, 0, len(lists))
	for kw, l := range lists {
		if len(l) > 0 {
			h = append(h, heapCursor{list: l, kw: uint8(kw)})
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		c := &h[0]
		out = append(out, Entry{Ord: c.list[c.pos], Kw: c.kw})
		c.pos++
		if c.pos == len(c.list) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

type heapCursor struct {
	list []int32
	pos  int
	kw   uint8
}

type mergeHeap []heapCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].list[h[i].pos], h[j].list[h[j].pos]
	if a != b {
		return a < b
	}
	return h[i].kw < h[j].kw
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(heapCursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MaskTable answers OR-of-keyword-masks queries over ranges of S_L in O(1)
// after O(|S_L|·log|S_L|) preprocessing (a sparse table; OR is idempotent).
// The search engine computes candidate masks with a cheaper single stack
// sweep (candidates' subtree ranges nest); the table is kept here as a
// range-query oracle.
type MaskTable struct {
	sl     []Entry
	levels [][]uint64
}

// NewMaskTable builds the table for sl.
func NewMaskTable(sl []Entry) *MaskTable {
	n := len(sl)
	t := &MaskTable{sl: sl}
	if n == 0 {
		return t
	}
	base := make([]uint64, n)
	for i, e := range sl {
		base[i] = e.Mask()
	}
	t.levels = append(t.levels, base)
	for width := 2; width <= n; width *= 2 {
		prev := t.levels[len(t.levels)-1]
		cur := make([]uint64, n-width+1)
		for i := range cur {
			cur[i] = prev[i] | prev[i+width/2]
		}
		t.levels = append(t.levels, cur)
	}
	return t
}

// RangeMask returns the OR of the keyword masks of sl[i:j].
func (t *MaskTable) RangeMask(i, j int) uint64 {
	if i >= j {
		return 0
	}
	k := bits.Len(uint(j-i)) - 1
	return t.levels[k][i] | t.levels[k][j-(1<<k)]
}

// OrdRange locates the index interval of S_L whose entries lie in the node
// ordinal interval [start, end) — the subtree range of a candidate node.
func OrdRange(sl []Entry, start, end int32) (lo, hi int) {
	lo = sort.Search(len(sl), func(i int) bool { return sl[i].Ord >= start })
	hi = sort.Search(len(sl), func(i int) bool { return sl[i].Ord >= end })
	return lo, hi
}

// SubtreeMask returns the distinct-keyword mask of the node interval
// [start, end).
func (t *MaskTable) SubtreeMask(start, end int32) uint64 {
	lo, hi := OrdRange(t.sl, start, end)
	return t.RangeMask(lo, hi)
}

// CountDistinct returns the number of set bits in mask.
func CountDistinct(mask uint64) int { return bits.OnesCount64(mask) }
