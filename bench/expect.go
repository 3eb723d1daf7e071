package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	gks "repro"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lca"
)

// answer is what /search must return for one request: the response size
// and the identity and score of its first topK nodes.
type answer struct {
	total int
	ids   []string
	ranks []float64
}

type insightAnswer struct {
	value  string
	count  int
	weight float64
}

func answerOf(resp *gks.Response) answer {
	a := answer{total: len(resp.Results)}
	for i, r := range resp.Results {
		if i == topK {
			break
		}
		a.ids = append(a.ids, r.ID.String())
		a.ranks = append(a.ranks, r.Rank)
	}
	return a
}

func (a answer) equal(b answer) bool {
	if a.total != b.total || len(a.ids) != len(b.ids) {
		return false
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] || a.ranks[i] != b.ranks[i] {
			return false
		}
	}
	return true
}

func insightsEqual(a, b []insightAnswer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fillAnswers computes every request's expected answers in process through
// gks.System, on as many goroutines as the harness has processors.
func fillAnswers(sys *gks.System, reqs []request, withInsights bool, workers int) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				r := &reqs[i]
				resp, err := sys.SearchContext(context.Background(), r.query, r.s)
				if err != nil {
					errs[w] = fmt.Errorf("expected answer for %q: %w", r.query, err)
					return
				}
				r.want = answerOf(resp)
				if withInsights {
					for _, in := range sys.Insights(resp, insightsM) {
						r.wantDI = append(r.wantDI, insightAnswer{in.Value, in.Count, in.Weight})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

const (
	oracleSample   = 32
	oracleKeywords = 3 // the oracle enumerates keyword subsets: exponential in |Q|
)

// oracleCheck cross-checks oracleSample of the workload's queries, cut to
// their first oracleKeywords keywords, three ways. The engine over ix —
// the persisted index loaded back, as gksd serves it — must answer exactly
// as the in-process system does. Every node it returns must hold, by a
// direct count over the posting lists, exactly the keywords its mask
// claims and at least s of them, and must hold a node of the naive
// subset-enumeration answer of internal/lca. (The converse does not hold:
// GKS lifts a minimal node to its entity ancestor and then prunes
// ancestors that add no keyword, so a naive node may have no result on its
// root path.) It returns the number of queries checked and the failures
// found.
func oracleCheck(sys *gks.System, ix *index.Index, reqs []request) (checked int, failures []string) {
	eng := core.NewEngine(ix)
	step := max(len(reqs)/oracleSample, 1)
	for i := 0; i < len(reqs) && checked < oracleSample; i += step {
		full := gks.ParseQuery(reqs[i].query)
		q := gks.Query{Keywords: full.Keywords[:min(len(full.Keywords), oracleKeywords)]}
		s := min(reqs[i].s, q.Len())
		checked++
		fail := func(format string, args ...any) {
			failures = append(failures, fmt.Sprintf("oracle %q s=%d: ", q.String(), s)+fmt.Sprintf(format, args...))
		}
		resp, err := eng.Search(q, s)
		if err != nil {
			fail("engine: %v", err)
			continue
		}
		inProc, err := sys.SearchQuery(q, s)
		if err != nil {
			fail("system: %v", err)
			continue
		}
		if !answerOf(resp).equal(answerOf(inProc)) {
			fail("loaded index answers differently from the in-process system")
		}
		lists := eng.PostingLists(q)
		naive := lca.NaiveGKS(ix, lists, s)
		for _, r := range resp.Results {
			lo, hi := ix.SubtreeRange(r.Ord)
			var mask uint64
			for k, list := range lists {
				if inRange(list, lo, hi) {
					mask |= 1 << k
				}
			}
			if mask != r.Mask || r.KeywordCount < s {
				fail("node %s: mask %b, counted %b", r.ID, r.Mask, mask)
			}
			if !inRange(naive, lo, hi) {
				fail("node %s holds no naive node", r.ID)
			}
		}
	}
	return checked, failures
}

// inRange reports whether the ascending list has an entry in [lo, hi).
func inRange(list []int32, lo, hi int32) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= lo })
	return i < len(list) && list[i] < hi
}
