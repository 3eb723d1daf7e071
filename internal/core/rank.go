package core

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"repro/internal/merge"
)

// The rank stage (§5). A node's rank is a function of its subtree alone:
// the terminal points of a candidate are the shallowest occurrences of each
// query keyword below it, and the potential a terminal receives is the
// candidate's keyword count divided by the child counts on the path down to
// it. Candidates nest, so one stack sweep over (candidates ∪ S_L) — the
// shape of computeMasks — hands every S_L entry to the innermost open
// candidate once; a closing candidate's terminal lists fold into its parent
// in O(|Q|). The integer bookkeeping (depths, terminal lists) is shared
// between nested candidates; the floating-point work is not: each closing
// candidate walks its own terminals with exactly the operations of the
// reference Scorer (scorer_test.go) in exactly its order, so every rank is
// bit-identical to the reference.

// rankCheckMask spaces the cancellation polls of the window scan and the
// rank sweep: one check every 256 windows or scored candidates.
const rankCheckMask = 1<<8 - 1

// rankSlot is one keyword's terminal list inside an open candidate: the
// shallowest depth seen so far and the S_L indices at that depth, chained
// in document order through the arena's rankNext column.
type rankSlot struct {
	depth      int32
	head, tail int32
}

// noTerminal is the slot of a keyword not seen yet: any real depth is
// shallower.
var noTerminal = rankSlot{depth: math.MaxInt32, head: -1, tail: -1}

// absorb merges the terminal list c into s: the shallower list wins, lists
// of equal depth concatenate (c lies after s in document order), a deeper c
// holds no terminal of s's candidate.
func (s *rankSlot) absorb(c rankSlot, next []int32) {
	switch {
	case c.depth < s.depth:
		*s = c
	case c.depth == s.depth:
		next[s.tail] = c.head
		s.tail = c.tail
	}
}

// rankFrame is one open candidate of the sweep: its index in the pre-order
// survivor list and the exclusive end of its subtree range. Its |Q| slots
// sit at the same stack level in the arena's rankSlots column.
type rankFrame struct {
	cand int32
	end  int32
}

// rankKey orders one scored candidate in the response: rank descending,
// keyword count descending, then document order — idx indexes the pre-order
// survivor list, so comparing it compares ordinals.
type rankKey struct {
	rank float64
	kc   int32
	idx  int32
}

// compareKeys is the response order over keys; it is total because idx is
// unique, so an unstable sort yields one answer.
func compareKeys(a, b rankKey) int {
	switch {
	case a.rank != b.rank:
		if a.rank > b.rank {
			return -1
		}
		return 1
	case a.kc != b.kc:
		return int(b.kc - a.kc)
	default:
		return int(a.idx - b.idx)
	}
}

// rankAll scores every surviving candidate in one sweep over S_L, orders
// the keys and materialises the response; k > 0 keeps only the k first.
// cands must be the pre-order survivors collectCandidates returned with a.
func (e *Engine) rankAll(ctx context.Context, a *queryArena, cands []*candidate, nkw, k int) ([]Result, error) {
	ix, sl := e.ix, a.merged.SL
	next := slices.Grow(a.rankNext[:0], len(sl))[:len(sl)]
	a.rankNext = next
	frames, slots, keys := a.rankFrames[:0], a.rankSlots[:0], a.rankKeys[:0]

	opened := 0
	lastOrd, lastDepth := int32(-1), int32(0)
	for i := 0; i <= len(sl); i++ {
		ord := int32(math.MaxInt32) // past the end: closes every open frame
		if i < len(sl) {
			ord = sl[i].Ord
		}
		// Close the candidates whose range ended before this entry: score
		// each from its own terminals, then fold them into its parent.
		for len(frames) > 0 && ord >= frames[len(frames)-1].end {
			if len(keys)&rankCheckMask == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			top := len(frames) - 1
			f := frames[top]
			c := cands[f.cand]
			closing := slots[top*nkw : (top+1)*nkw]
			keys = append(keys, rankKey{
				rank: e.flowTo(c, closing, next, sl),
				kc:   int32(bits.OnesCount64(c.mask)),
				idx:  f.cand,
			})
			frames, slots = frames[:top], slots[:top*nkw]
			if top > 0 {
				parent := slots[(top-1)*nkw:]
				for m := c.mask; m != 0; m &= m - 1 {
					kw := bits.TrailingZeros64(m)
					parent[kw].absorb(closing[kw], next)
				}
			}
		}
		if i == len(sl) {
			break
		}
		// Open the candidates whose range starts at or before this entry;
		// each nests inside the current top (sorted starts, nested ranges).
		for opened < len(cands) && cands[opened].ord <= ord {
			_, end := ix.SubtreeRange(cands[opened].ord)
			frames = append(frames, rankFrame{cand: int32(opened), end: end})
			for j := 0; j < nkw; j++ {
				slots = append(slots, noTerminal)
			}
			opened++
		}
		if len(frames) == 0 {
			continue // an instance below no surviving candidate
		}
		if ord != lastOrd {
			lastOrd, lastDepth = ord, ix.DepthOf(ord)
		}
		next[i] = -1
		at := int32(i)
		slots[(len(frames)-1)*nkw+int(sl[i].Kw)].absorb(rankSlot{depth: lastDepth, head: at, tail: at}, next)
	}

	// Keep the grown columns for the next query.
	a.rankFrames, a.rankSlots, a.rankKeys = frames, slots, keys

	if k > 0 && k < len(keys) {
		keys = keepBest(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	results := make([]Result, len(keys))
	for i, key := range keys {
		results[i] = e.resultOf(cands[key.idx], key.rank)
	}
	return results, nil
}

// resultOf builds the response entry of candidate c, scored rank.
func (e *Engine) resultOf(c *candidate, rank float64) Result {
	return Result{
		Ord:          c.ord,
		ID:           e.ix.IDOf(c.ord),
		Label:        e.ix.LabelOf(c.ord),
		IsEntity:     c.isEntity,
		Mask:         c.mask,
		KeywordCount: bits.OnesCount64(c.mask),
		LCPCount:     c.lcp,
		Rank:         rank,
	}
}

// flowTo sums the potential reaching c's terminals, keyword-ascending and
// in document order within a keyword: p divided bottom-up by the child
// count of every node from the terminal's parent up to c — the reference
// Scorer's chain, evaluated once per run of terminals sharing a parent
// (their chains are the same divisions of the same p).
func (e *Engine) flowTo(c *candidate, slots []rankSlot, next []int32, sl []merge.Entry) float64 {
	ix := e.ix
	p := float64(bits.OnesCount64(c.mask))
	total := 0.0
	memoParent, memoFlow := int32(-1), 0.0
	for m := c.mask; m != 0; m &= m - 1 {
		for i := slots[bits.TrailingZeros64(m)].head; i >= 0; i = next[i] {
			t := sl[i].Ord
			if t == c.ord {
				total += p // the candidate itself carries the keyword
				continue
			}
			if parent := ix.ParentOf(t); parent != memoParent {
				memoParent, memoFlow = parent, p
				for cur := parent; ; cur = ix.ParentOf(cur) {
					if cc := ix.ChildCountOf(cur); cc > 0 {
						memoFlow /= float64(cc)
					}
					if cur == c.ord {
						break
					}
				}
			}
			total += memoFlow
		}
	}
	return total
}

// keepBest moves the k first keys of the response order to keys[:k], in no
// particular order, and returns that prefix: a bounded heap whose root is
// the last kept key, so each remaining key costs one comparison unless it
// places.
func keepBest(keys []rankKey, k int) []rankKey {
	h := keys[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, key := range keys[k:] {
		if compareKeys(key, h[0]) < 0 {
			h[0] = key
			siftDown(h, 0)
		}
	}
	return h
}

// siftDown restores the last-at-root heap invariant below h[i].
func siftDown(h []rankKey, i int) {
	for {
		last := i
		if l := 2*i + 1; l < len(h) && compareKeys(h[l], h[last]) > 0 {
			last = l
		}
		if r := 2*i + 2; r < len(h) && compareKeys(h[r], h[last]) > 0 {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}
