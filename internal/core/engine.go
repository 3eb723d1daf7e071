package core

import (
	"context"
	"math/bits"
	"slices"
	"time"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/merge"
)

// Engine runs GKS searches against a built index.
type Engine struct {
	ix *index.Index
}

// NewEngine wraps ix in a search engine.
func NewEngine(ix *index.Index) *Engine {
	return &Engine{ix: ix}
}

// Index exposes the underlying index (used by the analysis engine).
func (e *Engine) Index() *index.Index { return e.ix }

// Result is one node of the GKS response R_Q(s), ranked.
type Result struct {
	// Ord is the node's ordinal in the index's pre-order table.
	Ord int32
	// ID is the node's Dewey identifier.
	ID dewey.ID
	// Label is the node's element tag.
	Label string
	// IsEntity reports whether the node is an LCE node (§2.2); false for
	// plain LCP nodes that have no entity ancestor.
	IsEntity bool
	// Mask is the set of distinct query keywords in the node's subtree.
	Mask uint64
	// KeywordCount is the number of distinct query keywords in the subtree
	// (popcount of Mask) — the initial potential P|e of the ranking model.
	KeywordCount int
	// LCPCount is the number of sliding-window blocks that mapped onto
	// this node (the paper's LCP-list counter).
	LCPCount int
	// Rank is the potential-flow score (§5); results are ordered by it.
	Rank float64
}

// Response is the outcome of a GKS search.
type Response struct {
	// Query is the executed query.
	Query Query
	// S is the effective threshold min(s, |Q|) after clamping.
	S int
	// Results holds the response nodes, highest rank first: all of them, or
	// only the k best when a top-k search asked for k.
	Results []Result
	// Total is |R_Q(s)|, the size of the whole response, however many of
	// its nodes Results holds.
	Total int
	// SLSize is |S_L|, the merged posting list length (Figures 8–10 of the
	// paper plot response time against it).
	SLSize int
	// Partial reports that the response covers only part of the data: a
	// sharded scatter-gather search ran with some shards failing and
	// degrade-to-partial enabled. Single-index searches never set it.
	Partial bool
	// Stages splits the wall-clock cost of producing this response across
	// the pipeline stages. A sharded response sums its shards' stages, so
	// the totals read as aggregate work, not critical-path latency.
	Stages StageTimings
}

// StageTimings is the per-stage wall-clock breakdown of one search.
type StageTimings struct {
	// Merge covers posting-list resolution and the k-way merge into S_L.
	Merge time.Duration
	// Windows covers the sliding-window block scan and LCP resolution.
	Windows time.Duration
	// Lift covers candidate lifting, dedupe and subtree-mask computation.
	Lift time.Duration
	// Filter covers the independent-witness filter.
	Filter time.Duration
	// Rank covers candidate scoring and response ordering.
	Rank time.Duration
}

// Total sums the stage times.
func (t StageTimings) Total() time.Duration {
	return t.Merge + t.Windows + t.Lift + t.Filter + t.Rank
}

// Add accumulates o into t (used when aggregating shard responses).
func (t *StageTimings) Add(o StageTimings) {
	t.Merge += o.Merge
	t.Windows += o.Windows
	t.Lift += o.Lift
	t.Filter += o.Filter
	t.Rank += o.Rank
}

// KeywordsOf lists the raw query keywords present in the result's subtree.
func (r Response) KeywordsOf(res Result) []string {
	var out []string
	for m := res.Mask; m != 0; m &= m - 1 {
		kw := bits.TrailingZeros64(m)
		if kw < len(r.Query.Keywords) {
			out = append(out, r.Query.Keywords[kw].Raw)
		}
	}
	return out
}

// candidate is a survivor of the GKS pipeline before ranking.
type candidate struct {
	ord      int32
	isEntity bool
	mask     uint64
	lcp      int
	covered  uint64
	survives bool
}

// Search executes query q with threshold s. s is clamped to [1, |Q|]
// (the paper's response contains nodes with at least min(s,|Q|) query
// keywords). The returned response is ranked.
func (e *Engine) Search(q Query, s int) (*Response, error) {
	return e.SearchCtx(context.Background(), q, s)
}

// SearchCtx is Search honoring cancellation and deadlines from ctx. The
// pipeline polls ctx periodically — inside the S_L merge, the window scan
// and the rank sweep — so an expired request stops burning CPU at the
// next checkpoint instead of completing a doomed search on a detached
// goroutine. A cancelled search returns ctx.Err() and no response.
func (e *Engine) SearchCtx(ctx context.Context, q Query, s int) (*Response, error) {
	return e.search(ctx, q, s, 0, nil)
}

// search runs the candidate stages, then the one rank stage every ranked
// entry point shares (§5); k > 0 keeps only the k first results, and a
// non-nil counts receives the pipeline's intermediate sizes.
func (e *Engine) search(ctx context.Context, q Query, s, k int, counts *explainCounts) (*Response, error) {
	resp, cands, a, err := e.collectCandidates(ctx, q, s, counts)
	if err != nil || len(cands) == 0 {
		return resp, err
	}
	defer e.releaseArena(a)
	resp.Total = len(cands)
	start := time.Now()
	if resp.Results, err = e.rankAll(ctx, a, cands, q.Len(), k); err != nil {
		return nil, err
	}
	resp.Stages.Rank = time.Since(start)
	return resp, nil
}

// collectCandidates runs stages 1–4 of the pipeline (merge, windows,
// lifting, witness filter) and returns the surviving candidates in
// pre-order, unranked. ctx is polled at stage boundaries and periodically
// inside the merge and window scans. A non-nil counts receives the sizes
// of the intermediate stages (Explain reads them).
//
// All scratch state (including S_L, reachable as arena.sl) lives in the
// returned arena; the caller must pass it to releaseArena once the
// survivors have been consumed. On error or empty-survivor returns the
// arena has already been released and comes back nil.
func (e *Engine) collectCandidates(ctx context.Context, q Query, s int, counts *explainCounts) (*Response, []*candidate, *queryArena, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if s < 1 {
		s = 1
	}
	if s > q.Len() {
		s = q.Len()
	}
	resp := &Response{Query: q, S: s}
	a := e.acquireArena()

	// 1. Fetch the inverted-index list S_i of every keyword and merge them
	// into the Dewey-ordered list S_L (§4.1).
	start := time.Now()
	lists := a.lists
	for _, kw := range q.Keywords {
		lists = append(lists, e.postings(kw))
	}
	a.lists = lists
	if counts != nil {
		for _, list := range lists {
			counts.postingSizes = append(counts.postingSizes, len(list))
		}
	}
	// On a lazily-backed (segment) index a failed block fetch surfaces as
	// an empty list plus a poisoned index; fail the query loudly rather
	// than answering from partial postings.
	if err := e.ix.LazyErr(); err != nil {
		e.releaseArena(a)
		return nil, nil, nil, err
	}
	sl, err := merge.MergeInto(ctx, lists, a.sl)
	if err != nil {
		e.releaseArena(a)
		return nil, nil, nil, err
	}
	a.sl = sl
	resp.SLSize = len(sl)
	resp.Stages.Merge = time.Since(start)
	if len(sl) == 0 {
		e.releaseArena(a)
		return resp, nil, nil, nil
	}

	// 2. Slide the s-unique-keyword block over S_L and count each block's
	// longest common prefix on its LCP node (Lemma 6: for a Dewey-sorted
	// block the common prefix of the first and last entries is the common
	// prefix of the whole block). A document root is never a response (§1,
	// Example 1), so a block whose ends lie in two documents or in two
	// depth-1 subtrees of one document yields nothing: blockLCA skips it in
	// O(1) and climbs from the first entry only for the rest.
	start = time.Now()
	ws, err := e.scanWindows(ctx, a, sl, s)
	if err != nil {
		e.releaseArena(a)
		return nil, nil, nil, err
	}
	resp.Stages.Windows = time.Since(start)
	if counts != nil {
		counts.windowStats = ws
		counts.lcpNodes = len(a.touched)
	}

	// 3. Lift candidates: attribute nodes resolve to their parent
	// (Def 2.1.1: "the parent node of an attribute node is considered the
	// lowest ancestor for keywords in its value"), then every candidate
	// resolves to its lowest entity ancestor-or-self when one exists
	// (§4.1); otherwise it stays a plain LCP node. Distinct lifted nodes
	// dedupe through the flat candIdx table into the candidate slab.
	start = time.Now()
	for _, ord := range a.touched {
		count := int(a.lcpCount[ord])
		lifted := ord
		for e.ix.CatOf(lifted)&index.Attribute != 0 && e.ix.ParentOf(lifted) >= 0 {
			lifted = e.ix.ParentOf(lifted)
		}
		final, isEntity := lifted, false
		if ent, ok := e.ix.LowestEntityAncestorOrSelf(lifted); ok {
			final, isEntity = ent, true
		}
		if e.ix.DepthOf(final) == 0 && final != lifted {
			// The entity lift landed on a document root. Roots are never
			// meaningful responses (§1, Example 1), so keep the original
			// LCP node as a plain candidate instead of discarding the
			// match altogether.
			final, isEntity = lifted, false
		}
		if e.ix.DepthOf(final) == 0 {
			// Document roots are never meaningful responses (§1,
			// Example 1: "'r' is not a meaningful response as it is
			// available to the user even in the absence of any query").
			continue
		}
		idx := a.candIdx[final]
		if idx == 0 {
			a.cands = append(a.cands, candidate{ord: final, isEntity: isEntity})
			idx = int32(len(a.cands))
			a.candIdx[final] = idx
			a.candOrds = append(a.candOrds, final)
		}
		a.cands[idx-1].lcp += count
	}

	// Pointers into the slab are taken only now that it is fully built, so
	// append growth above cannot have invalidated them.
	cands := a.ptrs
	for i := range a.cands {
		cands = append(cands, &a.cands[i])
	}
	a.ptrs = cands
	if counts != nil {
		counts.candidates = len(cands)
		for _, c := range cands {
			if c.isEntity {
				counts.entityCandidates++
			}
		}
	}
	slices.SortFunc(cands, func(x, y *candidate) int { return int(x.ord - y.ord) })
	a.maskStack = computeMasks(e.ix, cands, sl, a.maskStack)
	resp.Stages.Lift = time.Since(start)

	// 4. Independent-witness filter (Def 2.2.1, Lemmas 4–5): a candidate
	// survives only if some query keyword in its subtree is not contained
	// in any surviving candidate below it. Candidates are nested by
	// pre-order, so a stack sweep resolves coverage bottom-up.
	start = time.Now()
	stack := a.witStack
	finalize := func(c *candidate) {
		c.survives = c.mask&^c.covered != 0
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			if c.survives {
				parent.covered |= c.mask
			} else {
				parent.covered |= c.covered
			}
		}
	}
	for _, c := range cands {
		for len(stack) > 0 && !e.ix.ContainsOrd(stack[len(stack)-1].ord, c.ord) {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			finalize(top)
		}
		stack = append(stack, c)
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		finalize(top)
	}
	a.witStack = stack

	survivors := cands[:0]
	for _, c := range cands {
		if c.survives {
			survivors = append(survivors, c)
		}
	}
	resp.Stages.Filter = time.Since(start)
	if len(survivors) == 0 {
		e.releaseArena(a)
		return resp, nil, nil, nil
	}
	return resp, survivors, a, nil
}

// windowStats counts what the window stage did with S_L's blocks.
type windowStats struct {
	// blocks is the number of sliding-window blocks with s unique keywords.
	blocks int
	// pruned counts the blocks whose LCA is a document root or missing.
	pruned int
	// climbs counts the blocks that needed a parent climb: no range test
	// skipped them and the memo did not answer them.
	climbs int
}

// scanWindows runs stage 2 over sl: it counts every block's LCP node in
// a.lcpCount, listing first touches in a.touched, and skips the blocks
// that cannot yield a candidate. ctx is polled every rankCheckMask+1
// blocks; a cancelled scan returns ctx.Err().
func (e *Engine) scanWindows(ctx context.Context, a *queryArena, sl []merge.Entry, s int) (windowStats, error) {
	var st windowStats
	b := blockLCA{ix: e.ix, memoFirst: -1}
	cancelled := false
	merge.Windows(sl, s, func(l, r int) {
		st.blocks++
		if cancelled {
			return
		}
		if st.blocks&rankCheckMask == 0 && ctx.Err() != nil {
			cancelled = true // skip the per-block work for the rest
			return
		}
		ord, ok := b.lca(sl[l].Ord, sl[r].Ord)
		if !ok {
			st.pruned++
			return
		}
		if a.lcpCount[ord] == 0 {
			a.touched = append(a.touched, ord)
		}
		a.lcpCount[ord]++
	})
	if cancelled {
		return st, ctx.Err()
	}
	st.climbs = b.climbs
	return st, nil
}

// blockLCA maps window blocks to the lowest common ancestor of their end
// entries — the node whose Dewey ID is their longest common prefix — when
// that ancestor lies below a document root; only such blocks can yield a
// candidate, since the lift drops roots. Blocks must arrive with both ends
// nondecreasing, as merge.Windows emits them over a pre-order S_L, so its
// range cursors only move forward: the document lookup runs once per
// document entered and a climb reaches depth 1 at most once per block.
type blockLCA struct {
	ix *index.Index
	// docRoot and docEnd delimit the ordinal range of the document that
	// holds the latest first entry.
	docRoot, docEnd int32
	// topEnd ends the depth-1 subtree the latest unsuccessful climb
	// reached; that subtree starts at or before every later first entry.
	topEnd int32
	// memoFirst, memoLast and memoOrd remember the latest climbed pair: S_L
	// repeats ordinals across keywords, so adjacent blocks often share
	// their ends.
	memoFirst, memoLast, memoOrd int32
	climbs                       int
}

// lca returns the LCA of first ≤ last and true, or false when the two lie
// in different documents or their LCA is the document root.
func (b *blockLCA) lca(first, last int32) (int32, bool) {
	if first >= b.docEnd {
		b.docRoot, b.docEnd = b.ix.DocRange(first)
	}
	if last >= b.docEnd || first == b.docRoot || (first < b.topEnd && last >= b.topEnd) {
		return 0, false
	}
	if first == b.memoFirst && last == b.memoLast {
		return b.memoOrd, true
	}
	// The LCA is the first ancestor-or-self of first whose subtree range
	// holds last (last ≥ first ≥ every ancestor's start).
	b.climbs++
	for cur := first; ; {
		end := cur + b.ix.SubtreeSizeOf(cur)
		if last < end {
			b.memoFirst, b.memoLast, b.memoOrd = first, last, cur
			return cur, true
		}
		parent := b.ix.ParentOf(cur)
		if parent == b.docRoot {
			b.topEnd = end
			return 0, false
		}
		cur = parent
	}
}

// maskOpen is one frame of the computeMasks sweep: an open candidate and
// the exclusive end of its subtree range.
type maskOpen struct {
	c   *candidate
	end int32
}

// computeMasks fills every candidate's distinct-keyword mask with one
// sweep over S_L: candidates are pre-order sorted and their subtree ranges
// nest, so a stack of "open" candidates (those whose range contains the
// current entry) absorbs each entry's keyword bit in O(|S_L|·d + |C|)
// total — cheaper and allocation-free compared to building a sparse
// range-OR table per query. scratch (may be nil) seeds the sweep stack;
// the stack is returned so pooled callers can keep its capacity.
func computeMasks(ix *index.Index, cands []*candidate, sl []merge.Entry, scratch []maskOpen) []maskOpen {
	stack := scratch[:0]
	next := 0
	for _, entry := range sl {
		// Close candidates whose range ended before this entry.
		for len(stack) > 0 && entry.Ord >= stack[len(stack)-1].end {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Fold the child's mask into its enclosing candidate, if any
			// (ranges nest, so the parent is the new stack top).
			if len(stack) > 0 {
				stack[len(stack)-1].c.mask |= top.c.mask
			}
		}
		// Open candidates whose range starts at or before this entry.
		// Sorted starts plus nest-or-disjoint ranges guarantee each newly
		// opened candidate nests inside the current stack top.
		for next < len(cands) && cands[next].ord <= entry.Ord {
			c := cands[next]
			next++
			_, end := ix.SubtreeRange(c.ord)
			if end <= entry.Ord {
				continue // defensive: no S_L entries left in this range
			}
			stack = append(stack, maskOpen{c: c, end: end})
		}
		// The entry's keyword belongs to every open candidate; marking the
		// innermost suffices because masks fold upward on close.
		if len(stack) > 0 {
			stack[len(stack)-1].c.mask |= entry.Mask()
		}
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			stack[len(stack)-1].c.mask |= top.c.mask
		}
	}
	return stack
}

// ResultBefore reports whether a precedes b in response order: rank
// descending, then keyword count descending, then global document order.
// The final key compares Dewey IDs rather than ordinals, so the order is
// well defined across results drawn from different index shards — within a
// single index the two orders coincide because pre-order ordinals equal
// Dewey order. The sharded scatter-gather merge uses it to interleave
// per-shard ranked lists into exactly the order of the equivalent single
// index.
func ResultBefore(a, b Result) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	if a.KeywordCount != b.KeywordCount {
		return a.KeywordCount > b.KeywordCount
	}
	return dewey.Compare(a.ID, b.ID) < 0
}

// PostingLists resolves every query keyword to its posting list (phrase
// keywords intersect their token lists node-wise). The LCA baselines use
// it so that baseline comparisons search exactly the same keyword
// instances as the GKS engine. On a lazily-backed index a fetch failure
// yields empty lists here; callers that must distinguish broken storage
// from absent keywords check Index.LazyErr afterwards, as the search
// paths do.
func (e *Engine) PostingLists(q Query) [][]int32 {
	lists := make([][]int32, q.Len())
	for i, kw := range q.Keywords {
		lists[i] = e.postings(kw)
	}
	return lists
}

// postings returns the posting list of one keyword: a single token's list,
// or the node-wise intersection of all token lists for a phrase keyword.
func (e *Engine) postings(kw Keyword) []int32 {
	if len(kw.Tokens) == 0 {
		return nil
	}
	list := e.ix.PostingsFor(kw.Tokens[0])
	for _, tok := range kw.Tokens[1:] {
		list = intersectSorted(list, e.ix.PostingsFor(tok))
		if len(list) == 0 {
			return nil
		}
	}
	return list
}

func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
