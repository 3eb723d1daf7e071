// Package merge implements the merged keyword-instance list S_L of the GKS
// search algorithm (Agarwal et al., EDBT 2016, §4.1) together with the
// sliding-window block scan that both the GKS engine and the LCA baselines
// are built on.
//
// Posting lists store node *ordinals* (indices into the index's pre-order
// node table). Because pre-order equals Dewey order, merging by ordinal
// yields the paper's Dewey-sorted list S_L, and the subtree of any node is a
// contiguous ordinal interval.
//
// The k-way merge is a loser tree over concrete cursors: it performs
// exactly ⌈log₂ k⌉ comparisons per output entry and never boxes cursors
// through interface{}. One- and two-list inputs skip the tree entirely — a
// straight copy and a galloping two-pointer merge.
//
// MergeInto is also a threshold merge. A document root is never a response
// (§1, Example 1), so every response node lies inside one *record*: a
// depth-1 subtree, delimited by the index's record column (Records). A
// record holding fewer than s distinct query keywords yields no block, no
// candidate and no rank term, so when the filter runs S_L keeps only the
// entries of the records with at least s. By pigeonhole such a record
// holds an entry of every n − s + 1 of the n lists, so the candidate
// records come from the n − s + 1 shortest lists alone, and the other lists
// are galloped to each candidate's range (the MergeSkip form of the
// T-occurrence problem, Li, Lu and Lu, ICDE 2008; Xu and Papakonstantinou's
// Indexed Lookup Eager SLCA also drives from the shortest list). The skip is
// exact and uses no score bound. Within a kept record a block's minimal
// right end never depends on entries outside it, so every in-record block,
// mask and rank term is the one the unfiltered S_L gives.
package merge

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// MaxKeywords bounds the number of query keywords; keyword sets are tracked
// as 64-bit masks.
const MaxKeywords = 64

// ErrTooManyLists is MergeInto's answer to more than MaxKeywords lists:
// keyword numbers and masks would not fit. Query validation rejects such
// queries before they reach the merge.
var ErrTooManyLists = errors.New("merge: more than 64 posting lists")

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

// Records is the record column of a node table: Starts holds the sorted
// first ordinals of the records (every document root and every depth-1
// node), and End is the exclusive end of the last one (the node count).
// Record k spans [Starts[k], Starts[k+1]).
type Records struct {
	Starts []int32
	End    int32
}

// Span is the ordinal range [Start, End) of one record.
type Span struct{ Start, End int32 }

// Seek returns the index and span of the record holding ord, searching
// forward from record k, which must start at or before ord: a gallop, so
// a scan that visits the records in order pays O(log gap) per step.
func (r Records) Seek(k int, ord int32) (int, Span) {
	k = gallop(r.Starts, k, ord, true) - 1
	end := r.End
	if k+1 < len(r.Starts) {
		end = r.Starts[k+1]
	}
	return k, Span{r.Starts[k], end}
}

// Output is what MergeInto produces. Its slices are reused across calls,
// so a caller holding one per query arena merges allocation-free in the
// steady state.
type Output struct {
	// SL is the merged list: every entry, or only those of the kept
	// records when Filtered.
	SL []Entry
	// Filtered reports that the threshold filter ran.
	Filtered bool
	// Touched counts the candidate records the filter examined (those
	// holding an entry of a driving list) and Qualified the ones it kept.
	// Both are 0 when the filter did not run.
	Touched, Qualified int
}

// Merge performs a k-way merge of the per-keyword posting lists into S_L.
// Each input list must be sorted ascending; the output is sorted by ordinal
// with ties broken by keyword number. The merge runs in O(|S_L|·log k),
// matching the paper's complexity analysis (§4.1). More than MaxKeywords
// lists yield nil.
func Merge(lists [][]int32) []Entry {
	var out Output
	if MergeInto(context.Background(), lists, 1, Records{}, &out) != nil {
		return nil
	}
	return out.SL
}

// ctxCheckInterval is how many merged entries (or candidate records) are
// produced between cancellation checks. A power of two so the check
// compiles to a mask; at 4096 entries the overhead is unmeasurable while a
// cancelled merge over a multi-million-entry S_L stops within microseconds.
const ctxCheckInterval = 1 << 12

// MergeInto merges lists into out at threshold s. When filters holds for
// the lists and s it runs the threshold filter over recs, and out.SL keeps
// only the entries of records with at least s distinct keywords; otherwise
// out.SL is the whole merge. Either way out.SL is sorted by ordinal, ties
// by keyword number. ctx is polled every ctxCheckInterval output entries
// and candidate records; on cancellation MergeInto returns ctx.Err() and
// out's contents are unspecified.
func MergeInto(ctx context.Context, lists [][]int32, s int, recs Records, out *Output) error {
	if len(lists) > MaxKeywords {
		return ErrTooManyLists
	}
	out.SL = out.SL[:0]
	out.Filtered, out.Touched, out.Qualified = false, 0, 0
	var order [MaxKeywords]uint8
	if len(recs.Starts) > 0 && filters(lists, s, &order) {
		out.Filtered = true
		return mergeRecords(ctx, lists, s, recs, &order, out)
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if cap(out.SL) < total {
		out.SL = make([]Entry, 0, total)
	}
	var err error
	if out.SL, err = mergeAll(ctx, lists, out.SL); err != nil {
		return err
	}
	return ctx.Err()
}

// filters is the rule for when the threshold filter runs: s ≥ 2 and a
// record must hold more than half of the n keywords (2s > n), so at
// s = |Q| ≥ 2 it always runs. At s = 1 every record that holds an entry
// qualifies, and at a low s of many keywords (s = 2 of 8, Figure 8's
// shape) most do, so the per-record gallops would cost more than the
// entries they skip. filters leaves the keyword numbers in order,
// shortest list first (ties by keyword), so the n − s + 1 drivers lead.
func filters(lists [][]int32, s int, order *[MaxKeywords]uint8) bool {
	n := len(lists)
	if s < 2 || 2*s <= n || s > n {
		return false
	}
	for i, l := range lists {
		// Insertion sort by length: n is at most MaxKeywords.
		j := i
		for ; j > 0 && len(lists[order[j-1]]) > len(l); j-- {
			order[j] = order[j-1]
		}
		order[j] = uint8(i)
	}
	return true
}

// mergeRecords is the threshold filter. The next candidate record is the
// one holding the smallest head of the n − s + 1 driving lists
// (order[:n-s+1]). Every list is galloped to its start, shortest first;
// the record qualifies when at least s lists have an entry inside it, and
// the scan gives up as soon as more than n − s lack one. A qualifying
// record's entries are merged into out.SL; otherwise the driving lists
// skip past it.
func mergeRecords(ctx context.Context, lists [][]int32, s int, recs Records, order *[MaxKeywords]uint8, out *Output) error {
	n := len(lists)
	drivers := order[:n-s+1]
	var pos [MaxKeywords]int
	var sub [MaxKeywords][]int32
	k := 0
	for {
		head := int32(math.MaxInt32)
		for _, kw := range drivers {
			if l, p := lists[kw], pos[kw]; p < len(l) && l[p] < head {
				head = l[p]
			}
		}
		if head == math.MaxInt32 {
			return ctx.Err()
		}
		out.Touched++
		if out.Touched&(ctxCheckInterval-1) == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		var span Span
		k, span = recs.Seek(k, head)
		if head >= span.End {
			return fmt.Errorf("merge: posting ordinal %d lies past the last record's end %d", head, span.End)
		}
		have, missing := 0, 0
		for _, kw := range order[:n] {
			l, p := lists[kw], pos[kw]
			if p < len(l) && l[p] < span.Start {
				p = gallop(l, p, span.Start, false)
				pos[kw] = p
			}
			if p < len(l) && l[p] < span.End {
				have++
			} else if missing++; missing > n-s {
				break
			}
		}
		if have < s {
			for _, kw := range drivers {
				if l, p := lists[kw], pos[kw]; p < len(l) && l[p] < span.End {
					pos[kw] = gallop(l, p, span.End, false)
				}
			}
			continue
		}
		out.Qualified++
		for kw, l := range lists {
			p, e := pos[kw], pos[kw]
			if p < len(l) && l[p] < span.End {
				e = gallop(l, p, span.End, false)
			}
			sub[kw], pos[kw] = l[p:e], e
		}
		var err error
		if out.SL, err = mergeAll(ctx, sub[:n], out.SL); err != nil {
			return err
		}
	}
}

// mergeAll appends the k-way merge of lists (at most MaxKeywords) to out,
// dispatching on the number of non-empty lists. It polls ctx only inside
// long merges, so the threshold filter can call it once per record; its
// callers check ctx once more at the end.
func mergeAll(ctx context.Context, lists [][]int32, out []Entry) ([]Entry, error) {
	nonEmpty := 0
	first, last := -1, -1
	for kw, l := range lists {
		if len(l) > 0 {
			nonEmpty++
			if first < 0 {
				first = kw
			}
			last = kw
		}
	}
	switch nonEmpty {
	case 0:
		return out, nil
	case 1:
		// Single-list fast path: the one posting list verbatim.
		kw := uint8(last)
		for _, ord := range lists[last] {
			out = append(out, Entry{Ord: ord, Kw: kw})
		}
		return out, nil
	case 2:
		return mergeTwo(ctx, lists[first], lists[last], uint8(first), uint8(last), out)
	}
	return mergeLoserTree(ctx, lists, out)
}

// mergeTwo merges exactly two non-empty sorted lists with galloping: runs
// of consecutive entries from one list (common when posting lists cluster
// by document) are located with exponential + binary search and copied
// without per-entry comparisons. ka < kb, so ties on ordinal emit a first.
func mergeTwo(ctx context.Context, a, b []int32, ka, kb uint8, out []Entry) ([]Entry, error) {
	i, j := 0, 0
	// Runs are appended in bulk, so poll on a watermark rather than an exact
	// multiple of the interval (which bulk growth could step over).
	next := len(out) + ctxCheckInterval
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
	return out, nil
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
func mergeLoserTree(ctx context.Context, lists [][]int32, out []Entry) ([]Entry, error) {
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
