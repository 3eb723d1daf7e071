package core

import (
	"sync"

	"repro/internal/merge"
)

// queryArena is the per-query scratch state of the search pipeline, pooled
// process-wide so the steady-state hot path runs without per-query map or
// slice allocations. The two flat tables are indexed by node ordinal —
// they replace the seed pipeline's lcpCounts and byOrd maps — and are
// cleared through the touched/candOrds lists, so a query pays O(its own
// footprint) to reset them, not O(index size).
//
// Arenas are not engine-bound: every engine — each generation a mutation
// builds, each shard of a sharded set — draws from the one arenaPool, so a
// write does not leave the next generation's first queries to allocate
// fresh node-count tables. acquireArena grows a drawn arena's tables to the
// engine's node count; a query only indexes ordinals below it, so a larger
// table serves a smaller index unchanged.
type queryArena struct {
	// lists holds the per-keyword posting list headers for the merge.
	lists [][]int32
	// merged holds S_L and the threshold merge's record counts, reused by
	// merge.MergeInto.
	merged merge.Output
	// lcpCount counts sliding-window blocks per LCP ordinal.
	lcpCount []int32
	// touched lists the ordinals with lcpCount != 0, in first-touch order.
	touched []int32
	// candIdx maps a lifted ordinal to its slot in cands, offset by one so
	// the zero value means "no candidate yet".
	candIdx []int32
	// candOrds lists the ordinals with candIdx set.
	candOrds []int32
	// cands is the candidate slab: one entry per distinct lifted node,
	// replacing the seed's per-candidate heap allocations. Pointers into
	// the slab are taken only after the slab is fully built (ptrs), so
	// append-time reallocation cannot invalidate them.
	cands []candidate
	// ptrs is the pre-order sorted view of cands that the mask sweep,
	// witness filter and ranking loops walk.
	ptrs []*candidate
	// maskStack is the open-candidate stack of computeMasks.
	maskStack []maskOpen
	// witStack is the pending-candidate stack of the witness filter.
	witStack []*candidate
	// rankNext, rankFrames, rankSlots and rankKeys are the columns of the
	// rank sweep (rankAll): the terminal-list links, one per S_L entry, the
	// open-candidate stack with |Q| slots per level, and one sort key per
	// scored candidate. rankAll resets them itself.
	rankNext   []int32
	rankFrames []rankFrame
	rankSlots  []rankSlot
	rankKeys   []rankKey
}

// arenaPool holds the released arenas of every engine. The lcpCount and
// candIdx tables of a pooled arena are all zero.
var arenaPool sync.Pool

// acquireArena returns a pooled arena (a fresh one on a cold pool) whose
// flat tables cover the engine's node count. A table too short for it is
// replaced, not copied — a pooled table is all zero. A fresh arena gets
// tables of exactly the node count; an outgrown one, whose index is
// taking appends, gets an eighth of headroom, so the delta appends of a
// write-heavy index do not regrow the tables on every generation.
func (e *Engine) acquireArena() *queryArena {
	a, _ := arenaPool.Get().(*queryArena)
	if a == nil {
		a = &queryArena{}
	}
	if n := e.ix.NodeCount(); len(a.lcpCount) < n {
		if len(a.lcpCount) > 0 {
			n += n / 8
		}
		a.lcpCount = make([]int32, n)
		a.candIdx = make([]int32, n)
	}
	return a
}

// releaseArena resets a to a clean state and returns it to the pool. Reset
// must go through here on every exit path (including cancellations), so
// the flat tables are always zeroed before reuse.
func (e *Engine) releaseArena(a *queryArena) {
	for _, ord := range a.touched {
		a.lcpCount[ord] = 0
	}
	for _, ord := range a.candOrds {
		a.candIdx[ord] = 0
	}
	a.lists = a.lists[:0]
	a.merged = merge.Output{SL: a.merged.SL[:0]}
	a.touched = a.touched[:0]
	a.candOrds = a.candOrds[:0]
	a.cands = a.cands[:0]
	a.ptrs = a.ptrs[:0]
	a.maskStack = a.maskStack[:0]
	a.witStack = a.witStack[:0]
	arenaPool.Put(a)
}
