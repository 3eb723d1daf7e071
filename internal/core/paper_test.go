package core

import (
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// Tests in this file check the engine against the paper's worked examples:
// Table 1 (queries Q1–Q3 on Figure 1), Example 3 (query Q4 on Figure 2(a)),
// the §2.3 "perfect query" Q5, and the Example 5 rank arithmetic.

func figure1Engine(t *testing.T) *Engine {
	t.Helper()
	ix, err := index.BuildDocument(xmltree.BuildFigure1(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(ix)
}

func figure2aEngine(t *testing.T) *Engine {
	t.Helper()
	ix, err := index.BuildDocument(xmltree.BuildFigure2a(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(ix)
}

// labelsOf maps results to the label of the parent "x" node; the Figure 1
// fixture keyword leaves are <k> children of x1..x4 or r.
func resultLabels(resp *Response) []string {
	out := make([]string, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = r.Label
	}
	return out
}

func TestTable1Q1(t *testing.T) {
	e := figure1Engine(t)
	// Q1 = {a, b, c}, s = |Q1|: GKS returns exactly {x2}.
	resp, err := e.Search(NewQuery("alpha", "beta", "gamma"), 3)
	if err != nil {
		t.Fatal(err)
	}
	got := resultLabels(resp)
	if len(got) != 1 || got[0] != "x2" {
		t.Fatalf("Q1 response = %v, want [x2]", got)
	}
}

func TestTable1Q2(t *testing.T) {
	e := figure1Engine(t)
	// Q2 = {a, b, e}, s = 2: GKS returns {x2}, {x3}; SLCA/ELCA are NULL.
	resp, err := e.Search(NewQuery("alpha", "beta", "epsilon"), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := resultLabels(resp)
	if len(got) != 2 || got[0] != "x2" || got[1] != "x3" {
		t.Fatalf("Q2 response = %v, want [x2 x3]", got)
	}
}

func TestTable1Q3(t *testing.T) {
	e := figure1Engine(t)
	// Q3 = {a, b, c, d}, s = 2: GKS returns {x2}, {x3}, {x4}, ranked; the
	// root r (the SLCA/ELCA answer) is pruned as it adds no new keyword.
	resp, err := e.Search(NewQuery("alpha", "beta", "gamma", "delta"), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := resultLabels(resp)
	want := []string{"x2", "x3", "x4"}
	if len(got) != len(want) {
		t.Fatalf("Q3 response = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Q3 response = %v, want %v", got, want)
		}
	}
}

func TestExample5Ranks(t *testing.T) {
	e := figure1Engine(t)
	resp, err := e.Search(NewQuery("alpha", "beta", "gamma", "delta"), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRanks := map[string]float64{"x2": 3.0, "x3": 2.5, "x4": 2.0}
	for _, r := range resp.Results {
		want, ok := wantRanks[r.Label]
		if !ok {
			t.Errorf("unexpected node %s in response", r.Label)
			continue
		}
		if r.Rank != want { // 3, 2.5 and 2 are sums of exact quotients
			t.Errorf("rank(%s) = %v, want %v (Example 5)", r.Label, r.Rank, want)
		}
	}
}

func TestExample3CoursesReturned(t *testing.T) {
	e := figure2aEngine(t)
	// Q4 = {student, karen, mike, john, harry}, s = 2: the response is the
	// three Databases courses, as LCE nodes, with Data Mining ranked first.
	resp, err := e.Search(NewQuery("student", "karen", "mike", "john", "harry"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("Q4 returned %d nodes, want 3 courses: %+v", len(resp.Results), resultLabels(resp))
	}
	for _, r := range resp.Results {
		if r.Label != "Course" {
			t.Errorf("Q4 result %s (%s), want Course LCE nodes", r.Label, r.ID)
		}
		if !r.IsEntity {
			t.Errorf("Q4 result %s must be an LCE node", r.ID)
		}
	}
	// Data Mining course (Karen, Mike, John all enrolled) ranks first.
	if top := resp.Results[0].ID.String(); top != "0.0.1.1.0" {
		t.Errorf("top result = %s, want the Data Mining course 0.0.1.1.0", top)
	}
	// P|e of the top course is 4 distinct keywords: student, karen, mike, john.
	if resp.Results[0].KeywordCount != 4 {
		t.Errorf("top course keyword count = %d, want 4", resp.Results[0].KeywordCount)
	}
}

func TestSection23PerfectQuery(t *testing.T) {
	e := figure2aEngine(t)
	// Q5 = {student, karen, mike, john}, s = |Q|: GKS answers with the
	// Course entity node n0.1.1.0 — not the <Students> SLCA node.
	resp, err := e.Search(NewQuery("student", "karen", "mike", "john"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("Q5 returned %d nodes, want 1: %v", len(resp.Results), resultLabels(resp))
	}
	r := resp.Results[0]
	if r.ID.String() != "0.0.1.1.0" || r.Label != "Course" || !r.IsEntity {
		t.Errorf("Q5 result = %s %s entity=%v, want Course 0.0.1.1.0 LCE", r.Label, r.ID, r.IsEntity)
	}
}

func TestSClampingAndLemma2(t *testing.T) {
	e := figure2aEngine(t)
	q := NewQuery("student", "karen", "mike", "john", "harry")
	// s larger than |Q| clamps to |Q|; s < 1 clamps to 1.
	big, err := e.Search(q, 99)
	if err != nil {
		t.Fatal(err)
	}
	if big.S != 5 {
		t.Errorf("clamped s = %d, want 5", big.S)
	}
	small, err := e.Search(q, -3)
	if err != nil {
		t.Fatal(err)
	}
	if small.S != 1 {
		t.Errorf("clamped s = %d, want 1", small.S)
	}
	// Lemma 2: |R_Q(s1)| <= |R_Q(s2)| for s1 > s2, and every R(s1) node has
	// an ancestor-or-self in R(s2).
	var prev *Response
	for s := 5; s >= 1; s-- {
		resp, err := e.Search(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && len(prev.Results) > len(resp.Results) {
			t.Errorf("Lemma 2 violated: |R(%d)|=%d > |R(%d)|=%d",
				s+1, len(prev.Results), s, len(resp.Results))
		}
		prev = resp
	}
}

func TestKeywordsOf(t *testing.T) {
	e := figure1Engine(t)
	resp, err := e.Search(NewQuery("alpha", "beta", "gamma", "delta"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		kws := resp.KeywordsOf(r)
		if len(kws) != r.KeywordCount {
			t.Errorf("KeywordsOf(%s) = %v, want %d entries", r.Label, kws, r.KeywordCount)
		}
	}
}

func TestEmptyAndInvalidQueries(t *testing.T) {
	e := figure1Engine(t)
	if _, err := e.Search(Query{}, 1); err == nil {
		t.Error("empty query must error")
	}
	terms := make([]string, 65)
	for i := range terms {
		terms[i] = "kw" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	if _, err := e.Search(NewQuery(terms...), 1); err == nil {
		t.Error("queries over 64 keywords must error")
	}
}

func TestUnknownKeywordsGiveEmptyResponse(t *testing.T) {
	e := figure1Engine(t)
	resp, err := e.Search(NewQuery("zeta", "theta"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 || resp.SLSize != 0 {
		t.Errorf("unknown keywords: results=%d sl=%d, want empty", len(resp.Results), resp.SLSize)
	}
}

func TestPartiallyUnknownKeywords(t *testing.T) {
	e := figure1Engine(t)
	// "epsilon" does not occur; with s=1 the known keywords still match.
	resp, err := e.Search(NewQuery("delta", "epsilon"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("known keyword with s=1 must produce results")
	}
	for _, r := range resp.Results {
		if r.Mask&0b01 == 0 {
			t.Errorf("result %s lacks the known keyword", r.Label)
		}
	}
}

func TestPhraseKeyword(t *testing.T) {
	e := figure2aEngine(t)
	// "Data Mining" as a phrase matches only the one Name node value.
	resp, err := e.Search(NewQuery("Data Mining"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("phrase query returned %d results, want 1", len(resp.Results))
	}
	// The attribute Name node lifts to its Course entity.
	if got := resp.Results[0].ID.String(); got != "0.0.1.1.0" {
		t.Errorf("phrase result = %s, want Course 0.0.1.1.0", got)
	}
}

func TestParseQuery(t *testing.T) {
	q := ParseQuery(`"Peter Buneman" "Wenfei Fan" 2001 databases`)
	if q.Len() != 4 {
		t.Fatalf("parsed %d keywords, want 4: %+v", q.Len(), q)
	}
	if !q.Keywords[0].IsPhrase() || q.Keywords[0].Raw != "Peter Buneman" {
		t.Errorf("keyword 0 = %+v", q.Keywords[0])
	}
	if q.Keywords[2].Raw != "2001" || q.Keywords[2].IsPhrase() {
		t.Errorf("keyword 2 = %+v", q.Keywords[2])
	}
	if got := q.String(); got != `"Peter Buneman" "Wenfei Fan" 2001 databases` {
		t.Errorf("String = %q", got)
	}
	// Unterminated quote treated as trailing phrase.
	q2 := ParseQuery(`alpha "beta gamma`)
	if q2.Len() != 2 || q2.Keywords[1].Raw != "beta gamma" {
		t.Errorf("unterminated quote parse = %+v", q2)
	}
	// Whitespace-only input.
	if ParseQuery("   ").Len() != 0 {
		t.Error("blank input must parse to empty query")
	}
}

func TestResponseIsRankedDescending(t *testing.T) {
	e := figure2aEngine(t)
	resp, err := e.Search(NewQuery("student", "karen", "mike", "john", "harry"), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i-1].Rank < resp.Results[i].Rank {
			t.Fatalf("results not sorted by rank: %v then %v",
				resp.Results[i-1].Rank, resp.Results[i].Rank)
		}
	}
}

func TestEveryResultMeetsThreshold(t *testing.T) {
	e := figure2aEngine(t)
	for s := 1; s <= 5; s++ {
		resp, err := e.Search(NewQuery("student", "karen", "mike", "john", "harry"), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Results {
			if r.KeywordCount < resp.S {
				t.Errorf("s=%d: result %s has %d keywords", s, r.ID, r.KeywordCount)
			}
		}
	}
}

func TestMultiDocumentSearch(t *testing.T) {
	var repo xmltree.Repository
	repo.Add(xmltree.BuildFigure1())
	repo.Add(xmltree.BuildFigure1())
	ix, err := index.Build(&repo, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ix)
	resp, err := e.Search(NewQuery("alpha", "beta", "gamma"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("two-document search = %d results, want x2 in each doc", len(resp.Results))
	}
	docs := map[int32]bool{}
	for _, r := range resp.Results {
		if r.Label != "x2" {
			t.Errorf("result %s, want x2", r.Label)
		}
		docs[r.ID.Doc] = true
	}
	if !docs[0] || !docs[1] {
		t.Errorf("results must span both documents, got %v", docs)
	}
}
