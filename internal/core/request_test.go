package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// bestEffort and topK are the best-effort and top-k requests of SearchCtx.
func bestEffort(e *Engine, q Query) (*Response, error) {
	return e.SearchCtx(context.Background(), SearchRequest{Query: q, BestEffort: true})
}

func topK(e *Engine, q Query, s, k int) (*Response, error) {
	return e.SearchCtx(context.Background(), SearchRequest{Query: q, S: s, TopK: k})
}

// TestEngineSurface pins *Engine's exported methods: one request entry
// point (SearchCtx) with best effort and top-k as request options, the
// context-free Search wrapper, the best-effort probe and Explain.
func TestEngineSurface(t *testing.T) {
	et := reflect.TypeOf((*Engine)(nil))
	var all, search []string
	for i := 0; i < et.NumMethod(); i++ {
		name := et.Method(i).Name
		if name == "SearchBaseline" {
			continue // the retained seed pipeline, a test oracle (baseline_test.go)
		}
		all = append(all, name)
		if strings.Contains(name, "Search") || strings.Contains(name, "Explain") || strings.Contains(name, "HasResults") {
			search = append(search, name)
		}
	}
	if want := []string{"Explain", "HasResults", "Search", "SearchCtx"}; !reflect.DeepEqual(search, want) {
		t.Errorf("search surface %v, want %v", search, want)
	}
	if want := []string{"Explain", "HasResults", "Index", "PostingLists", "Search", "SearchCtx"}; !reflect.DeepEqual(all, want) {
		t.Errorf("*Engine methods %v, want %v", all, want)
	}
}

func TestSearchBestEffort(t *testing.T) {
	e := figure2aEngine(t)
	// {student, karen, mike, john}: all four co-occur in the Data Mining
	// course, so the best effort is s = 4.
	resp, err := bestEffort(e, NewQuery("student", "karen", "mike", "john"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.S != 4 {
		t.Errorf("best-effort s = %d, want 4", resp.S)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID.String() != "0.0.1.1.0" {
		t.Errorf("best-effort results = %+v", resp.Results)
	}

	// {karen, serena, julie}: no course holds all three, but the Databases
	// Area entity does — best effort settles at s = 3 with the Area as the
	// answer.
	resp, err = bestEffort(e, NewQuery("karen", "serena", "julie"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.S != 3 {
		t.Errorf("best-effort s = %d, want 3", resp.S)
	}
	if len(resp.Results) != 1 || resp.Results[0].Label != "Area" {
		t.Errorf("best-effort results = %+v, want the Databases Area", resp.Results)
	}

	// Unknown keywords: empty response at s=1.
	resp, err = bestEffort(e, NewQuery("zeta", "iota"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Errorf("unknown keywords produced %d results", len(resp.Results))
	}

	if _, err := bestEffort(e, Query{}); err == nil {
		t.Error("empty query must error")
	}
}

func TestSearchBestEffortMatchesLinearScan(t *testing.T) {
	e := figure2aEngine(t)
	queries := []Query{
		NewQuery("karen", "mike"),
		NewQuery("student", "karen", "mike", "john", "harry"),
		NewQuery("databases", "karen", "serena"),
		NewQuery("logic", "alice", "karen"),
	}
	for _, q := range queries {
		got, err := bestEffort(e, q)
		if err != nil {
			t.Fatal(err)
		}
		// Best-effort top-k settles on the same s and keeps the k-prefix.
		for _, k := range []int{1, 2} {
			gotK, err := e.SearchCtx(context.Background(), SearchRequest{Query: q, BestEffort: true, TopK: k})
			if err != nil {
				t.Fatal(err)
			}
			want := got.Results[:min(k, len(got.Results))]
			if gotK.S != got.S || gotK.Total != got.Total || !reflect.DeepEqual(gotK.Results, want) {
				t.Errorf("%v k=%d: best-effort top-k (s=%d, total %d, %d results), want the k-prefix of s=%d, total %d",
					q, k, gotK.S, gotK.Total, len(gotK.Results), got.S, got.Total)
			}
		}
		// Linear-scan oracle.
		wantS := 0
		for s := q.Len(); s >= 1; s-- {
			resp, err := e.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) > 0 {
				wantS = s
				break
			}
		}
		if wantS == 0 {
			if len(got.Results) != 0 {
				t.Errorf("%v: expected empty response", q)
			}
			continue
		}
		if got.S != wantS {
			t.Errorf("%v: best-effort s = %d, oracle %d", q, got.S, wantS)
		}
	}
}

func TestSearchTopKMatchesFullSearch(t *testing.T) {
	e := figure2aEngine(t)
	q := NewQuery("student", "karen", "mike", "john", "harry")
	full, err := e.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(full.Results)+2; k++ {
		topk, err := topK(e, q, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		want := len(full.Results)
		if k < want {
			want = k
		}
		if len(topk.Results) != want {
			t.Fatalf("k=%d: got %d results, want %d", k, len(topk.Results), want)
		}
		for i := range topk.Results {
			if topk.Results[i].Ord != full.Results[i].Ord {
				t.Errorf("k=%d: result %d = %s, want %s",
					k, i, topk.Results[i].ID, full.Results[i].ID)
			}
		}
	}
}

func TestSearchTopKZeroMeansAll(t *testing.T) {
	e := figure2aEngine(t)
	q := NewQuery("karen", "mike")
	full, err := e.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := topK(e, q, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Results) != len(full.Results) {
		t.Errorf("k=0 returned %d, want all %d", len(topk.Results), len(full.Results))
	}
}

func TestSearchTopKOnLargerCorpus(t *testing.T) {
	// Cross-check on the Figure 1 fixture with every k.
	ix, err := index.BuildDocument(xmltree.BuildFigure1(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ix)
	q := NewQuery("alpha", "beta", "gamma", "delta")
	full, err := e.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		topk, err := topK(e, q, 2, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k && i < len(full.Results); i++ {
			if topk.Results[i].Label != full.Results[i].Label {
				t.Errorf("k=%d pos=%d: %s vs %s", k, i, topk.Results[i].Label, full.Results[i].Label)
			}
		}
	}
}
