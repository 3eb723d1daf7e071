package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/merge"
)

func TestExplainMatchesSearch(t *testing.T) {
	e := figure2aEngine(t)
	q := NewQuery("student", "karen", "mike", "john", "harry")
	for s := 1; s <= 5; s++ {
		ex, err := e.Explain(context.Background(), q, s)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := e.Search(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Response.Results) != len(resp.Results) {
			t.Fatalf("s=%d: explain %d results, search %d",
				s, len(ex.Response.Results), len(resp.Results))
		}
		for i := range resp.Results {
			if ex.Response.Results[i].Ord != resp.Results[i].Ord {
				t.Fatalf("s=%d pos=%d: explain/search disagree", s, i)
			}
		}
		if ex.Survivors != len(resp.Results) {
			t.Errorf("s=%d: survivors = %d, results = %d", s, ex.Survivors, len(resp.Results))
		}
		if ex.Candidates < ex.Survivors {
			t.Errorf("s=%d: candidates (%d) < survivors (%d)", s, ex.Candidates, ex.Survivors)
		}
		if ex.SLSize == 0 {
			t.Errorf("s=%d: empty S_L", s)
		}
		if len(resp.Results) > 0 && ex.Blocks == 0 {
			t.Errorf("s=%d: results without window blocks", s)
		}
	}
}

func TestExplainString(t *testing.T) {
	e := figure2aEngine(t)
	ex, err := e.Explain(context.Background(), NewQuery("karen", "mike"), 2)
	if err != nil {
		t.Fatal(err)
	}
	out := ex.String()
	for _, want := range []string{"|S_L|", "blocks", "survivors", "postings"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	e := figure2aEngine(t)
	if _, err := e.Explain(context.Background(), Query{}, 1); err == nil {
		t.Error("empty query must error")
	}
}

// explainOracle is the diagnostic pre-pass Explain ran before the search
// filled its counts: it recomputes the posting sizes, S_L, the blocks and
// the LCP set with maps and the lockstep lcpNode, and lifts the LCP set a
// second time. Where the threshold merge filters, the blocks are those of
// recordFilterOracle's S_L, and its record counts are the oracle's. Root
// LCP nodes are included in its LCPNodes and counted apart in
// rootLCPNodes; prunedBlocks counts the blocks whose LCA is a root or
// missing.
func explainOracle(t *testing.T, e *Engine, q Query, s int) (ex Explanation, rootLCPNodes, prunedBlocks int) {
	t.Helper()
	lists := make([][]int32, q.Len())
	for i, kw := range q.Keywords {
		lists[i] = e.postings(kw)
		ex.PostingSizes = append(ex.PostingSizes, len(lists[i]))
	}
	sl := merge.Merge(lists)
	ex.SLSize = len(sl)
	if s < 1 {
		s = 1
	}
	if s > q.Len() {
		s = q.Len()
	}
	ex.S = s
	var m merge.Output
	if err := merge.MergeInto(context.Background(), lists, s, e.records(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Filtered {
		sl, ex.RecordsTouched, ex.RecordsQualified = recordFilterOracle(e.ix, lists, s)
	}

	lcp := map[int32]bool{}
	merge.Windows(sl, s, func(l, r int) {
		ex.Blocks++
		ord, ok := e.lcpNode(sl[l].Ord, sl[r].Ord)
		if ok {
			lcp[ord] = true
		}
		if !ok || e.ix.DepthOf(ord) == 0 {
			prunedBlocks++
		}
	})
	ex.LCPNodes = len(lcp)
	seen := map[int32]bool{}
	for ord := range lcp {
		if e.ix.DepthOf(ord) == 0 {
			rootLCPNodes++
		}
		lifted := ord
		for e.ix.CatOf(lifted)&index.Attribute != 0 && e.ix.ParentOf(lifted) >= 0 {
			lifted = e.ix.ParentOf(lifted)
		}
		final := lifted
		isEntity := false
		if ent, ok := e.ix.LowestEntityAncestorOrSelf(lifted); ok {
			if e.ix.DepthOf(ent) > 0 {
				final, isEntity = ent, true
			}
		}
		if e.ix.DepthOf(final) == 0 {
			continue
		}
		if !seen[final] {
			seen[final] = true
			ex.Candidates++
			if isEntity {
				ex.EntityCandidates++
			}
		}
	}
	return ex, rootLCPNodes, prunedBlocks
}

// recordOf is the record holding ord, found by climbing: the node itself
// at depth 0 or 1, else its depth-1 ancestor.
func recordOf(ix *index.Index, ord int32) int32 {
	for ix.DepthOf(ord) > 1 {
		ord = ix.ParentOf(ord)
	}
	return ord
}

// recordFilterOracle is the threshold merge by brute force: the whole S_L
// less the entries of records with fewer than s distinct keywords, the
// number of records holding an entry of one of the n − s + 1 shortest
// lists (ties by keyword number), and the number of records kept.
func recordFilterOracle(ix *index.Index, lists [][]int32, s int) (sl []merge.Entry, touched, qualified int) {
	masks := map[int32]uint64{}
	whole := merge.Merge(lists)
	for _, en := range whole {
		masks[recordOf(ix, en.Ord)] |= en.Mask()
	}
	for _, en := range whole {
		if bits.OnesCount64(masks[recordOf(ix, en.Ord)]) >= s {
			sl = append(sl, en)
		}
	}
	for _, m := range masks {
		if bits.OnesCount64(m) >= s {
			qualified++
		}
	}
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return len(lists[order[i]]) < len(lists[order[j]]) })
	driven := map[int32]bool{}
	for _, kw := range order[:len(lists)-s+1] {
		for _, ord := range lists[kw] {
			driven[recordOf(ix, ord)] = true
		}
	}
	return sl, len(driven), qualified
}

// TestExplainCountsMatchOracle holds every count Explain reads from the
// search against the retired pre-pass on random multi-document corpora:
// all equal, except that LCPNodes leaves out the root LCP nodes.
func TestExplainCountsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4901))
	q := NewQuery("apple", "pear", "plum", "fig")
	for trial := 0; trial < 60; trial++ {
		ix, err := randomCorpus(rng)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ix)
		for s := 0; s <= q.Len()+1; s++ {
			label := fmt.Sprintf("trial %d s=%d", trial, s)
			got, err := e.Explain(context.Background(), q, s)
			if err != nil {
				t.Fatal(err)
			}
			want, roots, pruned := explainOracle(t, e, q, s)
			if !slices.Equal(got.PostingSizes, want.PostingSizes) || got.SLSize != want.SLSize || got.S != want.S {
				t.Errorf("%s: postings %v |S_L| %d s %d, oracle %v %d %d", label, got.PostingSizes, got.SLSize, got.S, want.PostingSizes, want.SLSize, want.S)
			}
			if got.Blocks != want.Blocks || got.PrunedBlocks != pruned {
				t.Errorf("%s: blocks %d pruned %d, oracle %d %d", label, got.Blocks, got.PrunedBlocks, want.Blocks, pruned)
			}
			if got.RecordsTouched != want.RecordsTouched || got.RecordsQualified != want.RecordsQualified {
				t.Errorf("%s: records touched %d qualified %d, oracle %d %d", label, got.RecordsTouched, got.RecordsQualified, want.RecordsTouched, want.RecordsQualified)
			}
			if got.LCPNodes != want.LCPNodes-roots {
				t.Errorf("%s: LCP nodes %d, oracle %d less %d roots", label, got.LCPNodes, want.LCPNodes, roots)
			}
			if got.Candidates != want.Candidates || got.EntityCandidates != want.EntityCandidates {
				t.Errorf("%s: candidates %d (%d LCE), oracle %d (%d)", label, got.Candidates, got.EntityCandidates, want.Candidates, want.EntityCandidates)
			}
			if got.Survivors != got.Response.Total {
				t.Errorf("%s: survivors %d, response total %d", label, got.Survivors, got.Response.Total)
			}
		}
	}
}
