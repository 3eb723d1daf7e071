package di

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

func fig2aAnalyzer(t *testing.T) (*core.Engine, *Analyzer) {
	t.Helper()
	ix, err := index.BuildDocument(xmltree.BuildFigure2a(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	return eng, New(eng)
}

func TestSection23DIExample(t *testing.T) {
	// For Q4 = {student, karen, mike, john, harry}, s=2, the weighted set
	// S_w^Q holds the course names {Data Mining, AI, Algorithms}; the top
	// insight is <Course: Name: Data Mining> because the Data Mining
	// course is ranked highest.
	eng, an := fig2aAnalyzer(t)
	resp, err := eng.Search(core.NewQuery("student", "karen", "mike", "john", "harry"), 2)
	if err != nil {
		t.Fatal(err)
	}
	ins := an.Discover(resp, 0)
	// Course names plus the non-query student names (Julie, Serena, Peter).
	if len(ins) != 6 {
		t.Fatalf("insights = %d (%v), want 6", len(ins), ins)
	}
	if ins[0].Value != "Data Mining" {
		t.Errorf("top insight = %q, want Data Mining", ins[0].Value)
	}
	if got := ins[0].String(); got != "<Course: Name: Data Mining>" {
		t.Errorf("insight rendering = %q", got)
	}
	values := map[string]bool{}
	for _, in := range ins {
		values[in.Value] = true
	}
	for _, want := range []string{"Data Mining", "AI", "Algorithms"} {
		if !values[want] {
			t.Errorf("missing insight %q", want)
		}
	}
	for _, leak := range []string{"Karen", "Mike", "John"} {
		if values[leak] {
			t.Errorf("query keyword %q leaked into DI", leak)
		}
	}
}

func TestDIExcludesQueryKeywords(t *testing.T) {
	eng, an := fig2aAnalyzer(t)
	// Querying the course name itself: "Data Mining" must not come back as
	// an insight, but the query's course still exposes no other attribute.
	resp, err := eng.Search(core.NewQuery("Data Mining", "karen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range an.Discover(resp, 0) {
		if strings.Contains(in.Value, "Data Mining") {
			t.Errorf("query keyword leaked into DI: %v", in)
		}
		if strings.Contains(strings.ToLower(in.Value), "karen") {
			t.Errorf("query keyword leaked into DI: %v", in)
		}
	}
}

func TestDIWeightsAggregateAcrossLCEs(t *testing.T) {
	// Two courses share the name "Systems"; its weight must be the sum of
	// both course ranks and Count must be 2.
	doc := xmltree.NewDocument("dup", 0, xmltree.E("Dept",
		xmltree.ET("Dept_Name", "CS"),
		xmltree.E("Courses",
			xmltree.E("Course",
				xmltree.ET("Name", "Systems"),
				xmltree.E("Students", xmltree.ET("Student", "Ann"), xmltree.ET("Student", "Bob")),
			),
			xmltree.E("Course",
				xmltree.ET("Name", "Systems"),
				xmltree.E("Students", xmltree.ET("Student", "Ann"), xmltree.ET("Student", "Cid")),
			),
		),
	))
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	an := New(eng)
	resp, err := eng.Search(core.NewQuery("ann"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want both courses", len(resp.Results))
	}
	ins := an.Discover(resp, 1)
	if len(ins) != 1 || ins[0].Value != "Systems" || ins[0].Count != 2 {
		t.Fatalf("insights = %+v, want aggregated Systems with count 2", ins)
	}
	wantWeight := resp.Results[0].Rank + resp.Results[1].Rank
	if diff := ins[0].Weight - wantWeight; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("weight = %v, want %v", ins[0].Weight, wantWeight)
	}
}

func TestDITopM(t *testing.T) {
	eng, an := fig2aAnalyzer(t)
	resp, err := eng.Search(core.NewQuery("student", "karen", "mike", "john", "harry"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Discover(resp, 2); len(got) != 2 {
		t.Errorf("top-m = %d insights, want 2", len(got))
	}
	if got := an.Discover(resp, 100); len(got) != 6 {
		t.Errorf("m larger than set = %d insights, want 6", len(got))
	}
}

func TestDiscoverRecursive(t *testing.T) {
	eng, an := fig2aAnalyzer(t)
	search := func(q core.Query) (*core.Response, error) { return eng.Search(q, 1) }
	rounds, err := DiscoverRecursive(core.NewQuery("karen", "mike"), 2, 3, search, an.Discover)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) < 2 {
		t.Fatalf("rounds = %d, want at least 2", len(rounds))
	}
	// Round 1's query must be built from round 0's insight values.
	if rounds[0].Insights[0].Value == "" {
		t.Fatal("round 0 produced no insights")
	}
	r1q := rounds[1].Query.String()
	if !strings.Contains(r1q, strings.Fields(rounds[0].Insights[0].Value)[0]) {
		t.Errorf("round 1 query %q not derived from round 0 insights %v", r1q, rounds[0].Insights)
	}
}

func TestRefinementsQ3(t *testing.T) {
	// §6.1: for Q3 = {a,b,c,d} over Figure 1 the refinement suggestions are
	// {a,b,c} (from x2) and {a,b,d} (from x3).
	ix, err := index.BuildDocument(xmltree.BuildFigure1(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	resp, err := eng.Search(core.NewQuery("alpha", "beta", "gamma", "delta"), 2)
	if err != nil {
		t.Fatal(err)
	}
	refs := Refinements(resp, 2)
	if len(refs) != 2 {
		t.Fatalf("refinements = %v, want 2", refs)
	}
	if got := refs[0].String(); got != "alpha beta gamma" {
		t.Errorf("refinement 0 = %q, want alpha beta gamma", got)
	}
	if got := refs[1].String(); got != "alpha beta delta" {
		t.Errorf("refinement 1 = %q, want alpha beta delta", got)
	}
}

func TestRefinementsSkipFullQuery(t *testing.T) {
	ix, err := index.BuildDocument(xmltree.BuildFigure1(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	// Q1 matched fully by x2: its mask equals the full query, so no
	// refinement is suggested.
	resp, err := eng.Search(core.NewQuery("alpha", "beta", "gamma"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range Refinements(resp, 5) {
		if ref.Len() == 3 {
			t.Errorf("full query suggested as refinement: %v", ref)
		}
	}
}

func TestAugmentations(t *testing.T) {
	q := core.NewQuery("karen")
	ins := []Insight{{Value: "Data Mining"}, {Value: "AI"}}
	augs := Augmentations(q, ins, 1)
	if len(augs) != 1 {
		t.Fatalf("augmentations = %d, want 1", len(augs))
	}
	if got := augs[0].String(); got != `karen "Data Mining"` {
		t.Errorf("augmented query = %q", got)
	}
}

func TestDIEmptyResponse(t *testing.T) {
	eng, an := fig2aAnalyzer(t)
	resp, err := eng.Search(core.NewQuery("nosuchword"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Discover(resp, 5); len(got) != 0 {
		t.Errorf("insights from empty response = %v", got)
	}
	if refs := Refinements(resp, 5); len(refs) != 0 {
		t.Errorf("refinements from empty response = %v", refs)
	}
}
