package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/merge"
	"repro/internal/segment"
	"repro/internal/xmltree"
)

// SearchBaseline executes the query with the pre-overhaul pipeline kept
// from the original implementation: the whole, unfiltered k-way merge
// (merge.Merge, which the merge package holds against its container/heap
// oracle), map-keyed scratch tables (lcpCounts, byOrd), one *candidate allocation
// per distinct lifted node, a fresh S_L slice per query and one
// Scorer call per survivor. It is the test oracle: the property tests
// diff the arena-based hot path and its one-sweep rank stage against it
// (the responses must be identical, ranks bit for bit).
func (e *Engine) SearchBaseline(q Query, s int) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if s < 1 {
		s = 1
	}
	if s > q.Len() {
		s = q.Len()
	}
	resp := &Response{Query: q, S: s}

	// 1. Merge the posting lists into the whole S_L.
	lists := make([][]int32, q.Len())
	for i, kw := range q.Keywords {
		lists[i] = e.postings(kw)
	}
	if err := e.ix.LazyErr(); err != nil {
		return nil, err
	}
	sl := merge.Merge(lists)
	resp.SLSize = len(sl)
	if len(sl) == 0 {
		return resp, nil
	}

	// 2. Sliding-window block scan into a map of LCP counts.
	lcpCounts := make(map[int32]int)
	merge.Windows(sl, s, func(l, r int) {
		if ord, ok := e.lcpNodeDewey(sl[l].Ord, sl[r].Ord); ok {
			lcpCounts[ord]++
		}
	})

	// 3. Lift candidates, deduping through a map of heap-allocated
	// candidates.
	byOrd := make(map[int32]*candidate)
	for ord, count := range lcpCounts {
		lifted := ord
		for e.ix.CatOf(lifted)&index.Attribute != 0 && e.ix.ParentOf(lifted) >= 0 {
			lifted = e.ix.ParentOf(lifted)
		}
		final, isEntity := lifted, false
		if ent, ok := e.ix.LowestEntityAncestorOrSelf(lifted); ok {
			final, isEntity = ent, true
		}
		if e.ix.DepthOf(final) == 0 && final != lifted {
			final, isEntity = lifted, false
		}
		if e.ix.DepthOf(final) == 0 {
			continue
		}
		c := byOrd[final]
		if c == nil {
			c = &candidate{ord: final, isEntity: isEntity}
			byOrd[final] = c
		}
		c.lcp += count
	}

	cands := make([]*candidate, 0, len(byOrd))
	for _, c := range byOrd {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ord < cands[j].ord })
	computeMasks(e.ix, cands, sl, nil)

	// 4. Independent-witness filter.
	var stack []*candidate
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

	// 5. Rank the survivors one by one with the reference scorer, each over
	// its own S_L slice, and order the response with a comparison sort.
	scorer := Scorer{IX: e.ix}
	for _, c := range cands {
		if !c.survives {
			continue
		}
		start, end := e.ix.SubtreeRange(c.ord)
		lo, hi := ordRange(sl, start, end)
		resp.Results = append(resp.Results, e.resultOf(c, scorer.Score(c.ord, c.mask, sl[lo:hi])))
	}
	sort.Slice(resp.Results, func(i, j int) bool { return ResultBefore(resp.Results[i], resp.Results[j]) })
	resp.Total = len(resp.Results)
	return resp, nil
}

// lcpNodeDewey is the seed implementation of lcpNode: compute the longest
// common Dewey prefix, then resolve it to an ordinal by binary search.
func (e *Engine) lcpNodeDewey(a, b int32) (int32, bool) {
	if a == b {
		return a, true
	}
	lca, ok := dewey.LCA(e.ix.IDOf(a), e.ix.IDOf(b))
	if !ok {
		return 0, false
	}
	return e.ix.OrdinalOf(lca)
}

// lcpNode is the lockstep parent walk the window stage ran before
// blockLCA: equalize the depths of a and b, then step both up together
// until they meet. Unlike blockLCA it returns root LCAs too; false means
// the two lie in different documents.
func (e *Engine) lcpNode(a, b int32) (int32, bool) {
	ix := e.ix
	da, db := ix.DepthOf(a), ix.DepthOf(b)
	for da > db {
		a = ix.ParentOf(a)
		da--
	}
	for db > da {
		b = ix.ParentOf(b)
		db--
	}
	for a != b {
		pa, pb := ix.ParentOf(a), ix.ParentOf(b)
		if pa < 0 || pb < 0 {
			return 0, false // different documents: no common ancestor
		}
		a, b = pa, pb
	}
	return a, true
}

// windowOracle is what the window stage must produce for one S_L and s,
// computed block by block with lcpNode.
type windowOracle struct {
	windowStats
	// counts maps every non-root LCA to its number of blocks.
	counts map[int32]int32
	// rootLCPs is the number of distinct document roots that are the LCA
	// of some block.
	rootLCPs int
}

// oracleWindows resolves every block of sl with lcpNode, crosses each
// answer with the Dewey-prefix LCA, and models the climbs blockLCA must
// make: one per block of two nodes whose LCA lies below the root unless
// the previous climbed block had the same ends. A root-LCA block needs
// none — its ends lie in two records, or in a root's record — so a range
// test that lets a block through that it should have skipped shows up as
// an extra climb.
func oracleWindows(t *testing.T, e *Engine, sl []merge.Entry, s int) windowOracle {
	t.Helper()
	o := windowOracle{counts: map[int32]int32{}}
	roots := map[int32]bool{}
	memoFirst, memoLast := int32(-1), int32(-1)
	merge.Windows(sl, s, func(l, r int) {
		o.blocks++
		first, last := sl[l].Ord, sl[r].Ord
		ord, ok := e.lcpNode(first, last)
		if dord, dok := e.lcpNodeDewey(first, last); dok != ok || (ok && dord != ord) {
			t.Fatalf("blocks (%d,%d): lockstep LCA %d/%v, Dewey LCA %d/%v", first, last, ord, ok, dord, dok)
		}
		switch {
		case !ok || e.ix.DepthOf(ord) == 0:
			o.pruned++
			if ok {
				roots[ord] = true
			}
		default:
			o.counts[ord]++
			if first != last && (first != memoFirst || last != memoLast) {
				o.climbs++
				memoFirst, memoLast = first, last
			}
		}
	})
	o.rootLCPs = len(roots)
	return o
}

// requireWindowsMatchOracle runs the window stage over q's whole S_L at
// every threshold, with blockLCA reading the index's record column, and
// holds its per-node block counts, block, prune and climb counts against
// oracleWindows. Where the threshold merge filters, it runs the stage
// over the filtered S_L too, with the records taken from the merge: block,
// prune and climb counts must match the oracle over that list, and the
// per-node counts must be the whole list's. It returns how many
// thresholds filtered.
func requireWindowsMatchOracle(t *testing.T, label string, ix *index.Index, q Query) (filtered int) {
	t.Helper()
	e := NewEngine(ix)
	lists := e.PostingLists(q)
	whole := merge.Merge(lists)
	for s := 1; s <= q.Len(); s++ {
		want := oracleWindows(t, e, whole, s)
		a := e.acquireArena()
		a.merged.SL = append(a.merged.SL, whole...)
		requireScanMatches(t, fmt.Sprintf("%s s=%d", label, s), e, a, s, want.windowStats, want.counts)
		e.releaseArena(a)

		a = e.acquireArena()
		if err := merge.MergeInto(context.Background(), lists, s, e.records(), &a.merged); err != nil {
			t.Fatal(err)
		}
		if a.merged.Filtered {
			filtered++
			stats := oracleWindows(t, e, a.merged.SL, s).windowStats
			requireScanMatches(t, fmt.Sprintf("%s s=%d filtered", label, s), e, a, s, stats, want.counts)
		}
		e.releaseArena(a)
	}
	return filtered
}

// requireScanMatches runs scanWindows over a.merged and holds its counts
// against the oracle's.
func requireScanMatches(t *testing.T, label string, e *Engine, a *queryArena, s int, stats windowStats, counts map[int32]int32) {
	t.Helper()
	got, err := e.scanWindows(context.Background(), a, s)
	if err != nil {
		t.Fatal(err)
	}
	if got != stats {
		t.Errorf("%s: blocks/pruned/climbs = %+v, oracle %+v", label, got, stats)
	}
	if len(a.touched) != len(counts) {
		t.Errorf("%s: %d LCP nodes, oracle %d without roots", label, len(a.touched), len(counts))
	}
	for _, ord := range a.touched {
		if a.lcpCount[ord] != counts[ord] {
			t.Errorf("%s: LCP node %d counted %d blocks, oracle %d", label, ord, a.lcpCount[ord], counts[ord])
		}
	}
}

// randomCorpus indexes two to five randomDocs with element names indexed,
// so keywords land on roots and depth-1 nodes as well as leaves.
func randomCorpus(rng *rand.Rand) (*index.Index, error) {
	var repo xmltree.Repository
	for i := 2 + rng.Intn(4); i > 0; i-- {
		repo.Add(randomDoc(rng, fmt.Sprintf("d%d.xml", len(repo.Docs))))
	}
	return index.Build(&repo, index.Options{IndexElementNames: true})
}

// randomDoc builds a randomTree document or one of the shapes the window
// prune must get right: a bare root holding a keyword, or a chain deeper
// than 30. Tree roots may carry keyword attributes, and any root may be
// named after a query keyword.
func randomDoc(rng *rand.Rand, name string) *xmltree.Document {
	words := []string{"apple", "pear", "plum", "fig"}
	var root *xmltree.Node
	switch rng.Intn(6) {
	case 0:
		root = xmltree.ET("bare", words[rng.Intn(len(words))])
	case 1:
		root = xmltree.E("chain")
		cur := root
		for d := 0; d < 31+rng.Intn(5); d++ {
			if rng.Intn(4) == 0 {
				cur.Append(xmltree.ET("leaf", words[rng.Intn(len(words))]))
			}
			next := xmltree.E("link")
			cur.Append(next)
			cur = next
		}
		cur.Append(xmltree.ET("leaf", words[rng.Intn(len(words))]))
	default:
		root = randomTree(rng, rng.Intn(2) == 0).Root
		for k := rng.Intn(3); k > 0; k-- {
			root.Append(xmltree.ET("title", words[rng.Intn(len(words))]))
		}
	}
	if rng.Intn(3) == 0 {
		root.Label = words[rng.Intn(len(words))]
	}
	return xmltree.NewDocument(name, 0, root)
}

// TestWindowPruneMatchesLockstep is the differential test of the pruned
// window scan: over random multi-document corpora — fresh, with a
// tombstoned document, with a delta-appended one and served from a GKS4
// segment — every block's LCA count must equal the lockstep oracle's with
// root LCAs removed, the pruned blocks must be exactly those whose LCA is
// a root or missing, and the climbs must be exactly the ones the oracle
// models.
func TestWindowPruneMatchesLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	q := NewQuery("apple", "pear", "plum", "fig")
	dir := t.TempDir()
	for trial := 0; trial < 60; trial++ {
		ix, err := randomCorpus(rng)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d", trial)
		requireWindowsMatchOracle(t, label, ix, q)
		requireMatchesBaseline(t, label, ix, q)

		dead, err := ix.DeleteDoc(ix.DocNames[rng.Intn(len(ix.DocNames))])
		if err != nil {
			t.Fatal(err)
		}
		requireWindowsMatchOracle(t, label+" tombstoned", dead, q)

		grown, err := index.AppendAs(dead, randomDoc(rng, "added.xml"), dead.NextDocID(), index.Options{IndexElementNames: true})
		if err != nil {
			t.Fatal(err)
		}
		requireWindowsMatchOracle(t, label+" appended", grown, q)

		path := filepath.Join(dir, fmt.Sprintf("t%d.gks4", trial))
		if err := segment.WriteFile(path, grown); err != nil {
			t.Fatal(err)
		}
		r, err := segment.OpenFile(path, segment.Options{CacheBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		requireWindowsMatchOracle(t, label+" segment", r.Index(), q)
		requireMatchesBaseline(t, label+" segment", r.Index(), q)
		r.Close()
	}
}

// recordDoc is randomDoc with the shapes the threshold merge must get
// right added: leaves holding the phrase "apple pear", and kiwi, a word
// that only document roots carry — as their name or in a leading child,
// the form an XML attribute of the root takes.
func recordDoc(rng *rand.Rand, name string) *xmltree.Document {
	root := randomDoc(rng, name).Root
	var elems []*xmltree.Node
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Kind == xmltree.Element {
			elems = append(elems, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for k := rng.Intn(3); k > 0; k-- {
		elems[rng.Intn(len(elems))].Append(xmltree.ET("leaf", "apple pear"))
	}
	switch rng.Intn(3) {
	case 0:
		root.Label = "kiwi"
	case 1:
		root.Children = append([]*xmltree.Node{xmltree.ET("lang", "kiwi")}, root.Children...)
	}
	return xmltree.NewDocument(name, 0, root)
}

// recordQueries are the queries of TestRecordFilterMatchesLockstep: plain
// keywords, a phrase keyword, and keywords whose shortest list holds only
// root or root-attribute entries.
var recordQueries = []Query{
	NewQuery("apple", "pear", "plum", "fig"),
	NewQuery("apple pear", "plum", "fig"),
	NewQuery("kiwi", "apple", "pear"),
	NewQuery("kiwi", "fig"),
	NewQuery("apple pear", "kiwi"),
}

// TestRecordFilterMatchesLockstep is the differential test of the
// threshold merge. For every query and every s in 1..|Q|, the window stage
// over the merge's output — filtered where the rule runs the filter —
// must count each LCA as the lockstep oracle does over the whole S_L, and
// Search, Explain and top-k SearchCtx must answer as the retained seed pipeline
// over the unfiltered merge does: results, ranks bit for bit, Total and
// SLSize identical. The corpora are random multi-document corpora with
// bare roots, root attributes, keyword-named roots and chains deeper than
// 30, each fresh, tombstoned, delta-appended and segment-backed, and the
// XMark analog, whose largest record holds a third of the nodes.
func TestRecordFilterMatchesLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	dir := t.TempDir()
	filtered := 0
	check := func(label string, ix *index.Index, queries []Query) {
		t.Helper()
		for _, q := range queries {
			label := fmt.Sprintf("%s %s", label, q)
			filtered += requireWindowsMatchOracle(t, label, ix, q)
			requireMatchesBaseline(t, label, ix, q)
		}
	}
	opts := index.Options{IndexElementNames: true}
	for trial := 0; trial < 30; trial++ {
		var repo xmltree.Repository
		for i := 2 + rng.Intn(4); i > 0; i-- {
			repo.Add(recordDoc(rng, fmt.Sprintf("d%d.xml", len(repo.Docs))))
		}
		ix, err := index.Build(&repo, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d", trial)
		check(label, ix, recordQueries)

		dead, err := ix.DeleteDoc(ix.DocNames[rng.Intn(len(ix.DocNames))])
		if err != nil {
			t.Fatal(err)
		}
		check(label+" tombstoned", dead, recordQueries)

		grown, err := index.AppendAs(dead, recordDoc(rng, "added.xml"), dead.NextDocID(), opts)
		if err != nil {
			t.Fatal(err)
		}
		check(label+" appended", grown, recordQueries)

		path := filepath.Join(dir, fmt.Sprintf("t%d.gks4", trial))
		if err := segment.WriteFile(path, grown); err != nil {
			t.Fatal(err)
		}
		r, err := segment.OpenFile(path, segment.Options{CacheBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		check(label+" segment", r.Index(), recordQueries)
		r.Close()
	}

	xmark, err := index.BuildDocument(datagen.XMark(datagen.Config{Seed: 7, Scale: 1}), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vocab := xmark.TopKeywords(0)
	sort.Slice(vocab, func(i, j int) bool { return vocab[i].Count > vocab[j].Count })
	var queries []Query
	for len(queries) < 12 {
		terms := make([]string, 2+rng.Intn(3))
		for i := range terms {
			// Half the terms from the 40 most frequent, so answers are not
			// all empty.
			if rng.Intn(2) == 0 {
				terms[i] = vocab[rng.Intn(min(40, len(vocab)))].Keyword
			} else {
				terms[i] = vocab[rng.Intn(len(vocab))].Keyword
			}
		}
		if q := NewQuery(terms...); q.Len() == len(terms) {
			queries = append(queries, q)
		}
	}
	check("xmark", xmark, queries)
	answered := 0
	for _, q := range queries {
		if resp, err := NewEngine(xmark).Search(q, q.Len()); err != nil {
			t.Fatal(err)
		} else if resp.Total > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Fatal("no XMark query has an answer at s = |Q|")
	}
	if filtered == 0 {
		t.Fatal("the threshold merge never filtered")
	}
}

// TestRecordColumn holds the index's record column — every document root
// and every depth-1 node, in order — against the accessors after a delta
// append, an append that replaces the top document (the live rows pack
// afresh first), DeleteDoc and Repacked, and after a GKS3 and a GKS4
// reload.
func TestRecordColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	opts := index.Options{IndexElementNames: true}
	require := func(label string, ix *index.Index) {
		t.Helper()
		var want []int32
		for ord := int32(0); ord < int32(ix.NodeCount()); ord++ {
			if p := ix.ParentOf(ord); p < 0 || ix.ParentOf(p) < 0 {
				want = append(want, ord)
			}
		}
		if got := ix.Records(); !slices.Equal(got, want) {
			t.Fatalf("%s: record column %v, want %v", label, got, want)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		var repo xmltree.Repository
		for i := 2 + rng.Intn(3); i > 0; i-- {
			repo.Add(recordDoc(rng, fmt.Sprintf("d%d.xml", len(repo.Docs))))
		}
		ix, err := index.Build(&repo, opts)
		if err != nil {
			t.Fatal(err)
		}
		require("build", ix)
		if ix, err = index.AppendAs(ix, recordDoc(rng, "a.xml"), ix.NextDocID(), opts); err != nil {
			t.Fatal(err)
		}
		require("append", ix)
		// Replacing a.xml, the top document: b.xml takes its tombstoned
		// number.
		if ix, err = ix.DeleteDoc("a.xml"); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"b.xml", "c.xml"} {
			if ix, err = index.AppendAs(ix, recordDoc(rng, name), ix.NextDocID(), opts); err != nil {
				t.Fatal(err)
			}
		}
		require("append over the top document", ix)
		if ix, err = ix.DeleteDoc(ix.DocNames[rng.Intn(len(ix.DocNames))]); err != nil {
			t.Fatal(err)
		}
		require("delete", ix)
		require("repacked", ix.Repacked())

		var snap bytes.Buffer
		if err := ix.SaveSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := index.Load(&snap)
		if err != nil {
			t.Fatal(err)
		}
		require("GKS3 reload", loaded)
		path := filepath.Join(dir, fmt.Sprintf("t%d.gks4", trial))
		if err := segment.WriteFile(path, ix); err != nil {
			t.Fatal(err)
		}
		r, err := segment.OpenFile(path, segment.Options{CacheBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		require("GKS4 reload", r.Index())
		r.Close()
	}
}

// requireSameResponse diffs two responses field by field, ranks bit for bit
// (Stages excluded: timings are never part of the search contract).
func requireSameResponse(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if got.S != want.S || got.SLSize != want.SLSize || got.Total != want.Total {
		t.Fatalf("%s: S/SLSize/Total = %d/%d/%d, want %d/%d/%d", label, got.S, got.SLSize, got.Total, want.S, want.SLSize, want.Total)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Ord != w.Ord || g.ID.String() != w.ID.String() || g.Label != w.Label ||
			g.IsEntity != w.IsEntity || g.Mask != w.Mask || g.KeywordCount != w.KeywordCount ||
			g.LCPCount != w.LCPCount || math.Float64bits(g.Rank) != math.Float64bits(w.Rank) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// requireMatchesBaseline holds every ranked entry point of the engine over
// ix against the retained seed pipeline, whose ranks come
// from Scorer one candidate at a time: Search and Explain must equal it,
// and a top-k SearchCtx must equal its k-prefix around both ends of |R| — with
// Total still |R| (the baseline's len(Results)) whatever k is.
func requireMatchesBaseline(t *testing.T, label string, ix *index.Index, q Query) {
	t.Helper()
	eng := NewEngine(ix)
	for s := 1; s <= q.Len(); s++ {
		want, err := eng.SearchBaseline(q, s)
		if err != nil {
			t.Fatal(err)
		}
		n := len(want.Results)
		label := fmt.Sprintf("%s s=%d", label, s)
		got, err := eng.Search(q, s)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, label, got, want)
		ex, err := eng.Explain(context.Background(), q, s)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, label+" explain", ex.Response, want)
		if ex.Survivors != n {
			t.Fatalf("%s: explain survivors %d, want %d", label, ex.Survivors, n)
		}
		for _, k := range []int{0, 1, 10, n - 1, n, n + 1} {
			topk, err := topK(eng, q, s, k)
			if err != nil {
				t.Fatal(err)
			}
			prefix := *want
			if k > 0 && k < n {
				prefix.Results = want.Results[:k]
			}
			requireSameResponse(t, fmt.Sprintf("%s topk=%d", label, k), topk, &prefix)
		}
	}
}

// TestSearchMatchesBaseline is the hot path's oracle: the arena-based
// pipeline and its one-sweep rank stage must produce responses identical to
// the retained seed pipeline across random corpora, thresholds and result
// limits.
func TestSearchMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		doc := randomTree(rng, trial%2 == 0)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesBaseline(t, fmt.Sprintf("trial %d", trial), ix, NewQuery("apple", "pear", "plum", "fig"))
	}
}

// allocBenchDoc builds one document that is large enough for steady-state
// behavior to dominate: many entity-shaped nodes whose leaves draw from a
// small vocabulary, giving posting lists in the thousands.
func allocBenchDoc(entities int) *xmltree.Document {
	words := []string{"alpha", "beta", "gamma", "delta"}
	rng := rand.New(rand.NewSource(9))
	root := xmltree.E("root")
	for i := 0; i < entities; i++ {
		e := xmltree.E("entity", xmltree.ET("name", words[rng.Intn(len(words))]))
		for j := 0; j < 3; j++ {
			m := xmltree.E("member")
			for l := 0; l < 2; l++ {
				m.Append(xmltree.ET("leaf", words[rng.Intn(len(words))]))
			}
			e.Append(m)
		}
		root.Append(e)
	}
	return xmltree.NewDocument("alloc.xml", 0, root)
}

func allocBenchEngine(tb testing.TB, entities int) *Engine {
	tb.Helper()
	ix, err := index.BuildDocument(allocBenchDoc(entities), index.Options{IndexElementNames: false})
	if err != nil {
		tb.Fatal(err)
	}
	return NewEngine(ix)
}

// TestSearchAllocsSteadyState pins the arena win: on a warmed engine a
// search must allocate less than half of what the seed pipeline allocates
// for the same query (the acceptance bar is ≥50% fewer allocations).
func TestSearchAllocsSteadyState(t *testing.T) {
	eng := allocBenchEngine(t, 400)
	q := NewQuery("alpha", "beta", "gamma")
	if _, err := eng.Search(q, 2); err != nil { // warm the arena pool
		t.Fatal(err)
	}
	baseline := testing.AllocsPerRun(10, func() {
		if _, err := eng.SearchBaseline(q, 2); err != nil {
			t.Fatal(err)
		}
	})
	hot := testing.AllocsPerRun(10, func() {
		if _, err := eng.Search(q, 2); err != nil {
			t.Fatal(err)
		}
	})
	if hot*2 >= baseline {
		t.Errorf("steady-state Search allocates %.0f/run, baseline %.0f/run — want less than half", hot, baseline)
	}
	if resp, err := eng.Search(q, 2); err != nil {
		t.Fatal(err)
	} else if resp.Stages.Total() <= 0 {
		t.Errorf("stage timings not populated: %+v", resp.Stages)
	}
}

// TestSearchTopKAllocsSteadyState does the same for the top-k path, whose
// bounded heap must not reintroduce per-candidate churn.
func TestSearchTopKAllocsSteadyState(t *testing.T) {
	eng := allocBenchEngine(t, 400)
	q := NewQuery("alpha", "beta", "gamma")
	if _, err := topK(eng, q, 2, 10); err != nil {
		t.Fatal(err)
	}
	baseline := testing.AllocsPerRun(10, func() {
		if _, err := eng.SearchBaseline(q, 2); err != nil {
			t.Fatal(err)
		}
	})
	hot := testing.AllocsPerRun(10, func() {
		if _, err := topK(eng, q, 2, 10); err != nil {
			t.Fatal(err)
		}
	})
	if hot*2 >= baseline {
		t.Errorf("steady-state top-k SearchCtx allocates %.0f/run, baseline full search %.0f/run — want less than half", hot, baseline)
	}
}

func BenchmarkSearchHotPath(b *testing.B) {
	eng := allocBenchEngine(b, 2000)
	q := NewQuery("alpha", "beta", "gamma")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(q, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchSeedBaseline(b *testing.B) {
	eng := allocBenchEngine(b, 2000)
	q := NewQuery("alpha", "beta", "gamma")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchBaseline(q, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTopK pins the bounded-heap top-k maintenance (the seed
// re-sorted the whole running response after every accepted candidate).
func BenchmarkSearchTopK(b *testing.B) {
	eng := allocBenchEngine(b, 2000)
	q := NewQuery("alpha", "beta", "gamma")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topK(eng, q, 1, 10); err != nil {
			b.Fatal(err)
		}
	}
}
