// Package merge implements the merged keyword-instance list S_L of the GKS
// search algorithm (Agarwal et al., EDBT 2016, §4.1) together with the
// sliding-window block scan and range keyword-mask queries that both the
// GKS engine and the LCA baselines are built on.
//
// Posting lists store node *ordinals* (indices into the index's pre-order
// node table). Because pre-order equals Dewey order, merging by ordinal
// yields the paper's Dewey-sorted list S_L, and the subtree of any node is a
// contiguous ordinal interval.
//
// The k-way merge is a loser tree over concrete cursors: compared to a
// container/heap it performs exactly ⌈log₂ k⌉ comparisons per output entry
// (a binary heap's sift-down costs up to 2·log₂ k) and never boxes cursors
// through interface{}. One- and two-list inputs skip the tree entirely — a
// straight copy and a galloping two-pointer merge. MergeHeap retains the
// original container/heap implementation as the differential-testing oracle
// and benchmark baseline.
package merge

import (
	"container/heap"
	"context"
	"math"
	"math/bits"
	"sort"
)

// MaxKeywords bounds the number of query keywords; keyword sets are tracked
// as 64-bit masks.
const MaxKeywords = 64

// Entry is one element of the merged list S_L: a keyword instance located at
// a node.
type Entry struct {
	// Ord is the pre-order ordinal of the node carrying the instance.
	Ord int32
	// Kw is the query-keyword number (index into the query's keyword list).
	Kw uint8
}

// Mask returns the keyword bit mask of the entry.
func (e Entry) Mask() uint64 { return 1 << e.Kw }

// Merge performs a k-way merge of the per-keyword posting lists into S_L.
// Each input list must be sorted ascending; the output is sorted by ordinal
// with ties broken by keyword number. The merge runs in O(|S_L|·log k),
// matching the paper's complexity analysis (§4.1).
func Merge(lists [][]int32) []Entry {
	out, _ := MergeCtx(context.Background(), lists)
	return out
}

// MergeCtx is Merge honoring ctx: the merge loop polls ctx.Done() every
// ctxCheckInterval output entries and returns ctx.Err() early, so a
// timed-out search stops consuming CPU mid-merge instead of completing a
// doomed S_L. On cancellation the partial output is discarded (nil).
func MergeCtx(ctx context.Context, lists [][]int32) ([]Entry, error) {
	return MergeInto(ctx, lists, nil)
}

// ctxCheckInterval is how many merged entries are produced between
// cancellation checks. A power of two so the check compiles to a mask; at
// 4096 entries the overhead is unmeasurable while a cancelled merge over a
// multi-million-entry S_L stops within microseconds.
const ctxCheckInterval = 1 << 12

// MergeInto is MergeCtx writing into buf's storage: the output reuses
// buf[:0] when its capacity suffices, so a caller holding a per-query
// scratch buffer (the engine's query arena) merges allocation-free in the
// steady state. The returned slice aliases buf (or a larger replacement);
// buf's previous contents are discarded.
func MergeInto(ctx context.Context, lists [][]int32, buf []Entry) ([]Entry, error) {
	total, nonEmpty := 0, 0
	first, last := -1, -1
	for kw, l := range lists {
		if len(l) > 0 {
			total += len(l)
			nonEmpty++
			if first < 0 {
				first = kw
			}
			last = kw
		}
	}
	out := buf[:0]
	if cap(out) < total {
		out = make([]Entry, 0, total)
	}
	switch nonEmpty {
	case 0:
		return out, ctx.Err()
	case 1:
		// Single-list fast path: S_L is the one posting list verbatim.
		kw := uint8(last)
		for _, ord := range lists[last] {
			out = append(out, Entry{Ord: ord, Kw: kw})
		}
		return out, ctx.Err()
	case 2:
		return mergeTwo(ctx, lists[first], lists[last], uint8(first), uint8(last), out)
	}
	return mergeLoserTree(ctx, lists, out, nonEmpty)
}

// mergeTwo merges exactly two non-empty sorted lists with galloping: runs
// of consecutive entries from one list (common when posting lists cluster
// by document) are located with exponential + binary search and copied
// without per-entry comparisons. ka < kb, so ties on ordinal emit a first.
func mergeTwo(ctx context.Context, a, b []int32, ka, kb uint8, out []Entry) ([]Entry, error) {
	i, j := 0, 0
	// Runs are appended in bulk, so poll on a watermark rather than an exact
	// multiple of the interval (which bulk growth could step over).
	next := ctxCheckInterval
	for i < len(a) && j < len(b) {
		if len(out) >= next {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			next = len(out) + ctxCheckInterval
		}
		if a[i] <= b[j] {
			// Take the whole run a[i:e] with a[x] <= b[j].
			e := gallop(a, i, b[j], true)
			for ; i < e; i++ {
				out = append(out, Entry{Ord: a[i], Kw: ka})
			}
		} else {
			// Take the whole run b[j:e] with b[x] < a[i] (ties go to a).
			e := gallop(b, j, a[i], false)
			for ; j < e; j++ {
				out = append(out, Entry{Ord: b[j], Kw: kb})
			}
		}
	}
	for ; i < len(a); i++ {
		out = append(out, Entry{Ord: a[i], Kw: ka})
	}
	for ; j < len(b); j++ {
		out = append(out, Entry{Ord: b[j], Kw: kb})
	}
	return out, ctx.Err()
}

// gallop returns the end (exclusive) of the maximal run starting at
// list[from] whose values are <= bound (inclusive) or < bound (exclusive):
// an exponential probe brackets the boundary, a binary search pins it —
// O(log run) comparisons instead of O(run).
func gallop(list []int32, from int, bound int32, inclusive bool) int {
	within := func(v int32) bool {
		if inclusive {
			return v <= bound
		}
		return v < bound
	}
	// Exponential probe: find hi with list[hi] outside the run.
	step := 1
	lo := from // list[lo] is known within the run (caller checked)
	hi := from + step
	for hi < len(list) && within(list[hi]) {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > len(list) {
		hi = len(list)
	}
	// Binary search in (lo, hi] for the first value outside the run.
	return lo + 1 + sort.Search(hi-lo-1, func(k int) bool {
		return !within(list[lo+1+k])
	})
}

// loserKey packs a cursor's current (ordinal, keyword) pair into one int64
// so a tree round is a single integer comparison. Ordinals are non-negative
// and keyword numbers are < 64, so (ord << 8) | kw preserves the S_L order
// (ordinal ascending, keyword ascending on ties). Exhausted cursors take
// math.MaxInt64 and sink to the bottom of the tree.
func loserKey(ord int32, kw uint8) int64 { return int64(ord)<<8 | int64(kw) }

const exhaustedKey = int64(math.MaxInt64)

// loserCursor walks one posting list during the loser-tree merge.
type loserCursor struct {
	list []int32
	pos  int
	kw   uint8
}

// mergeLoserTree runs the k-way merge (k >= 3) on a loser tree: leaves are
// list cursors, each internal node remembers the loser of the match played
// there, and the overall winner is re-seated with one root-to-leaf replay of
// exactly ⌈log₂ k⌉ comparisons per emitted entry. Queries carry at most
// MaxKeywords lists, so all tree state lives in fixed-size stack arrays and
// the merge itself is allocation-free.
func mergeLoserTree(ctx context.Context, lists [][]int32, out []Entry, nonEmpty int) ([]Entry, error) {
	if nonEmpty > MaxKeywords {
		// Out-of-contract input (keyword masks are 64-bit anyway); serve it
		// through the reference merge rather than overrun the stack arrays.
		return append(out, MergeHeap(lists)...), ctx.Err()
	}
	var cursors [MaxKeywords]loserCursor
	nc := 0
	for kw, l := range lists {
		if len(l) > 0 {
			cursors[nc] = loserCursor{list: l, kw: uint8(kw)}
			nc++
		}
	}
	// Pad the leaf count to a power of two so the replay path is a pure
	// halving walk; padding leaves are permanently exhausted.
	p := 1
	for p < nc {
		p <<= 1
	}
	var keys [MaxKeywords]int64
	for i := 0; i < p; i++ {
		if i < nc {
			keys[i] = loserKey(cursors[i].list[0], cursors[i].kw)
		} else {
			keys[i] = exhaustedKey
		}
	}
	// Build: play every match bottom-up; win[] is transient, loser[] keeps
	// the loser seated at each internal node.
	var loser [MaxKeywords]int
	var win [2 * MaxKeywords]int
	for i := 0; i < p; i++ {
		win[p+i] = i
	}
	for n := p - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if keys[a] <= keys[b] {
			win[n], loser[n] = a, b
		} else {
			win[n], loser[n] = b, a
		}
	}
	winner := win[1]

	for keys[winner] != exhaustedKey {
		if len(out)&(ctxCheckInterval-1) == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c := &cursors[winner]
		out = append(out, Entry{Ord: c.list[c.pos], Kw: c.kw})
		c.pos++
		if c.pos == len(c.list) {
			keys[winner] = exhaustedKey
		} else {
			keys[winner] = loserKey(c.list[c.pos], c.kw)
		}
		// Replay the winner's path: at each node the smaller key advances,
		// the larger stays seated as the loser.
		for n := (p + winner) >> 1; n >= 1; n >>= 1 {
			if keys[loser[n]] < keys[winner] {
				loser[n], winner = winner, loser[n]
			}
		}
	}
	return out, nil
}

// MergeHeap is the original container/heap k-way merge, retained verbatim
// as the differential-testing oracle for the loser tree and as its
// fallback beyond 64 lists. Output is identical to Merge.
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

// Windows slides the paper's block over sl (Figure 5): for every left end l
// it finds the smallest right end r such that sl[l..r] holds s unique
// keywords (the sU(l,r,s) predicate) and calls emit(l, r). Blocks are
// emitted in increasing l; the scan is O(|S_L|) amortized.
func Windows(sl []Entry, s int, emit func(l, r int)) {
	if s <= 0 || len(sl) == 0 {
		return
	}
	var counts [MaxKeywords]int
	distinct := 0
	r := -1
	for l := 0; l < len(sl); l++ {
		for distinct < s && r+1 < len(sl) {
			r++
			counts[sl[r].Kw]++
			if counts[sl[r].Kw] == 1 {
				distinct++
			}
		}
		if distinct < s {
			return // no block with s unique keywords starts at or after l
		}
		emit(l, r)
		counts[sl[l].Kw]--
		if counts[sl[l].Kw] == 0 {
			distinct--
		}
	}
}

// MaskTable answers OR-of-keyword-masks queries over ranges of S_L in O(1)
// after O(|S_L|·log|S_L|) preprocessing (a sparse table; OR is idempotent).
// The search engine computes candidate masks with a cheaper single stack
// sweep (candidates' subtree ranges nest); the table remains the
// general-purpose primitive for ad-hoc range queries and serves as the
// differential-testing oracle for the sweep.
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
