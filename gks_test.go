package gks

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dewey"
)

const universityXML = `<?xml version="1.0"?>
<Dept>
  <Dept_Name>CS</Dept_Name>
  <Area>
    <Name>Databases</Name>
    <Courses>
      <Course>
        <Name>Data Mining</Name>
        <Students>
          <Student>Karen</Student>
          <Student>Mike</Student>
          <Student>John</Student>
        </Students>
      </Course>
      <Course>
        <Name>Algorithms</Name>
        <Students>
          <Student>Karen</Student>
          <Student>Julie</Student>
        </Students>
      </Course>
    </Courses>
  </Area>
</Dept>`

func university(t *testing.T) *System {
	t.Helper()
	doc, err := ParseDocumentString(universityXML, "university.xml")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := IndexDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// searchAt runs the query string at threshold s through the one entry point.
func searchAt(sys Searcher, query string, s int) (*Response, error) {
	return sys.Search(context.Background(), SearchRequest{Query: ParseQuery(query), S: s})
}

func TestEndToEndSearch(t *testing.T) {
	sys := university(t)
	resp, err := searchAt(sys, "karen mike john", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %d, want the Data Mining course", len(resp.Results))
	}
	r := resp.Results[0]
	if r.Label != "Course" || !r.IsEntity {
		t.Errorf("result = %s entity=%v", r.Label, r.IsEntity)
	}
	chunk, err := sys.Chunk(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chunk, "<Name>Data Mining</Name>") {
		t.Errorf("chunk missing course name:\n%s", chunk)
	}
}

func TestEndToEndInsights(t *testing.T) {
	sys := university(t)
	resp, err := searchAt(sys, "karen", 1)
	if err != nil {
		t.Fatal(err)
	}
	ins := sys.Insights(resp, 3)
	if len(ins) == 0 {
		t.Fatal("no insights")
	}
	found := false
	for _, in := range ins {
		if in.Value == "Data Mining" || in.Value == "Algorithms" {
			found = true
		}
	}
	if !found {
		t.Errorf("insights = %v, want course names", ins)
	}
}

func TestEndToEndRefinements(t *testing.T) {
	sys := university(t)
	resp, err := searchAt(sys, "karen julie mike", 2)
	if err != nil {
		t.Fatal(err)
	}
	refs := Refinements(resp, 3)
	if len(refs) == 0 {
		t.Fatal("no refinement suggestions")
	}
	// {karen, julie} (Algorithms) and {karen, mike} (Data Mining) are the
	// natural sub-queries.
	joined := make([]string, len(refs))
	for i, r := range refs {
		joined[i] = r.String()
	}
	all := strings.Join(joined, " | ")
	if !strings.Contains(all, "karen") {
		t.Errorf("refinements = %v", joined)
	}
}

func TestBaselines(t *testing.T) {
	sys := university(t)
	q := NewQuery("karen", "mike", "john")
	slca := sys.SLCA(q)
	if len(slca) != 1 || slca[0] != "0.0.1.1.0.1" {
		t.Errorf("SLCA = %v, want [0.0.1.1.0.1] (the Students node)", slca)
	}
	elca := sys.ELCA(q)
	if len(elca) < 1 {
		t.Errorf("ELCA = %v", elca)
	}
}

func TestSaveLoadIndexRoundTrip(t *testing.T) {
	sys := university(t)
	var buf bytes.Buffer
	if err := sys.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := searchAt(loaded, "karen mike", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("loaded index returns no results")
	}
	if _, err := loaded.Chunk(resp.Results[0]); err == nil {
		t.Error("Chunk must fail without documents")
	}
}

func TestSaveLoadIndexFile(t *testing.T) {
	sys := university(t)
	path := filepath.Join(t.TempDir(), "uni.gksidx")
	if err := sys.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().ElementNodes != sys.Stats().ElementNodes {
		t.Error("stats differ after file round trip")
	}
}

func TestCategoryOf(t *testing.T) {
	sys := university(t)
	cat, ok := sys.CategoryOf("0.0.1.1.0")
	if !ok || cat&EntityNode == 0 {
		t.Errorf("Course category = %v/%v, want entity", cat, ok)
	}
	cat, ok = sys.CategoryOf("0.0.0")
	if !ok || cat != AttributeNode {
		t.Errorf("Dept_Name category = %v/%v, want attribute", cat, ok)
	}
	if _, ok := sys.CategoryOf("9.9"); ok {
		t.Error("missing node must report !ok")
	}
	if _, ok := sys.CategoryOf("garbage"); ok {
		t.Error("bad ID must report !ok")
	}
}

func TestIndexDocumentsErrors(t *testing.T) {
	if _, err := IndexDocuments(); err == nil {
		t.Error("no documents must error")
	}
}

func TestIndexFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "u.xml")
	if err := writeFile(path, universityXML); err != nil {
		t.Fatal(err)
	}
	sys, err := IndexFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := searchAt(sys, "karen", 1)
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("search on file-built index: %v / %d results", err, len(resp.Results))
	}
	if _, err := IndexFiles(filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("missing file must error")
	}
}

func TestBuilderAPI(t *testing.T) {
	doc := BuildDocument("built.xml", E("lib",
		E("book", ET("title", "systems design"), ET("author", "Ann")),
		E("book", ET("title", "query processing"), ET("author", "Ann")),
	))
	sys, err := IndexDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := searchAt(sys, "ann", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Errorf("results = %d, want both books", len(resp.Results))
	}
}

func TestRecursiveInsights(t *testing.T) {
	sys := university(t)
	rounds, err := InsightsRecursive(context.Background(), sys, NewQuery("karen"), 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) < 1 || len(rounds[0].Insights) == 0 {
		t.Fatalf("rounds = %+v", rounds)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestFacadeBestEffortAndTopK(t *testing.T) {
	sys := university(t)
	resp, err := sys.Search(context.Background(), SearchRequest{Query: ParseQuery("karen mike john harry"), BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	// harry is unknown; the best supported subset is {karen, mike, john}.
	if resp.S != 3 {
		t.Errorf("best-effort s = %d, want 3", resp.S)
	}
	topk, err := sys.Search(context.Background(), SearchRequest{Query: ParseQuery("karen mike john"), S: 1, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Results) != 1 || topk.Results[0].Label != "Course" {
		t.Errorf("top-1 = %+v", topk.Results)
	}
}

func TestFacadeSchema(t *testing.T) {
	sys := university(t)
	edges := sys.Schema()
	if len(edges) == 0 {
		t.Fatal("no schema edges")
	}
	found := false
	for _, e := range edges {
		if e.Parent == "Students" && e.Child == "Student" && e.Repeats {
			found = true
		}
	}
	if !found {
		t.Errorf("Students/Student edge missing or not repeating: %v", edges)
	}
	// Re-categorization on this regular document changes little but must
	// keep searches working.
	sys.ApplySchemaCategorization()
	resp, err := searchAt(sys, "karen", 1)
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("search after schema apply: %v / %d", err, len(resp.Results))
	}
}

func TestFacadeXPath(t *testing.T) {
	sys := university(t)
	nodes, err := sys.XPath(`//Course[Name="Data Mining"]/Students/Student`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("xpath students = %d, want 3", len(nodes))
	}
	// Cross-check: the GKS result for the same intent covers exactly these
	// students' course.
	resp, err := searchAt(sys, "karen mike john", 3)
	if err != nil {
		t.Fatal(err)
	}
	course := resp.Results[0].ID
	for _, n := range nodes {
		if !dewey.Equal(course, n.ID) && !course.IsAncestorOf(n.ID) {
			t.Errorf("xpath node %s outside GKS result %s", n.ID, course)
		}
	}
	if _, err := sys.XPath("not an xpath"); err == nil {
		t.Error("bad expression must error")
	}
	// Index-only systems cannot evaluate XPath.
	var buf bytes.Buffer
	if err := sys.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.XPath("//Student"); err == nil {
		t.Error("XPath on index-only system must error")
	}
}

func TestFacadeExplain(t *testing.T) {
	sys := university(t)
	ex, err := sys.Explain(context.Background(), ParseQuery("karen mike"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Survivors != len(ex.Response.Results) || ex.SLSize == 0 {
		t.Errorf("explain stats inconsistent: %+v", ex)
	}
}

// TestFacadeAddDocuments adds a document through Upsert: the successor
// finds it in the next document number and still finds the old content.
func TestFacadeAddDocuments(t *testing.T) {
	sys := university(t)
	before, err := searchAt(sys, "zoe", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Results) != 0 {
		t.Fatal("zoe should not exist yet")
	}
	extra := BuildDocument("extra.xml", E("Dept",
		ET("Dept_Name", "EE"),
		E("Area",
			ET("Name", "Signals"),
			E("Courses",
				E("Course",
					ET("Name", "DSP"),
					E("Students", ET("Student", "Zoe"), ET("Student", "Karen")),
				),
			),
		),
	))
	next, _, err := sys.Upsert(extra)
	if err != nil {
		t.Fatal(err)
	}
	sys = next.(*System)
	after, err := searchAt(sys, "zoe", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Results) != 1 {
		t.Fatalf("zoe after add = %d results", len(after.Results))
	}
	if after.Results[0].ID.Doc != 1 {
		t.Errorf("zoe found in doc %d, want 1", after.Results[0].ID.Doc)
	}
	// Old content still searchable, and chunks resolve across documents.
	both, err := searchAt(sys, "karen", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Results) != 3 {
		t.Fatalf("karen courses = %d, want 3", len(both.Results))
	}
	if _, err := sys.Chunk(after.Results[0]); err != nil {
		t.Errorf("chunk across documents: %v", err)
	}
}

func TestFacadeSnippet(t *testing.T) {
	sys := university(t)
	resp, err := searchAt(sys, "karen mike", 2)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := sys.Snippet(resp, resp.Results[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no snippet lines")
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l.Text, "«Karen»") {
			found = true
		}
	}
	if !found {
		t.Errorf("no highlighted match: %+v", lines)
	}
}

func TestFacadeSuggestAndTypes(t *testing.T) {
	sys := university(t)
	if sys.HasMatches("karne") {
		t.Fatal("misspelling should have no matches")
	}
	sug := sys.Suggest("karne", 2, 3)
	if len(sug) == 0 || sug[0].Keyword != "karen" {
		t.Fatalf("Suggest = %+v, want karen", sug)
	}
	types := sys.InferResultTypes("karen mike", 2)
	if len(types) == 0 || types[0].Label != "Course" {
		t.Fatalf("types = %+v, want Course", types)
	}
	// The successor of an upsert suggests from its own vocabulary.
	extra := BuildDocument("x.xml", E("Dept",
		ET("Dept_Name", "ME"),
		E("Area", ET("Name", "Fluids"),
			E("Courses", E("Course", ET("Name", "Turbulence"),
				E("Students", ET("Student", "Quentin"), ET("Student", "Xander"))))),
	))
	next, _, err := sys.Upsert(extra)
	if err != nil {
		t.Fatal(err)
	}
	sug = next.Suggest("xandre", 2, 3)
	if len(sug) == 0 || sug[0].Keyword != "xander" {
		t.Fatalf("post-add Suggest = %+v, want xander", sug)
	}
}

func TestFacadePrunedChunk(t *testing.T) {
	sys := university(t)
	resp, err := searchAt(sys, "karen", 1)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := sys.PrunedChunk(resp, resp.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chunk, "Karen") {
		t.Errorf("pruned chunk missing match:\n%s", chunk)
	}
	if strings.Contains(chunk, "Julie") && strings.Contains(chunk, "Mike") {
		// The top result is a single course; its other students must have
		// been pruned (only one of Mike/Julie can appear, and only if that
		// course's roster contains Karen's co-match... in fact neither
		// non-matching student should survive).
		t.Errorf("pruned chunk kept irrelevant students:\n%s", chunk)
	}
}

func TestIndexFilesStreaming(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "u.xml")
	if err := writeFile(path, universityXML); err != nil {
		t.Fatal(err)
	}
	streamed, err := IndexFilesStreaming(path)
	if err != nil {
		t.Fatal(err)
	}
	treed, err := IndexFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := searchAt(streamed, "karen mike john", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := searchAt(treed, "karen mike john", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) || a.Results[0].ID.String() != b.Results[0].ID.String() {
		t.Errorf("streaming and tree builds disagree: %+v vs %+v", a.Results, b.Results)
	}
	// Tree-dependent features are unavailable.
	if _, err := streamed.Chunk(a.Results[0]); err == nil {
		t.Error("Chunk must fail on a streamed system")
	}
}

func TestFacadeSmallWrappers(t *testing.T) {
	// ParseDocument / T / SearchQuery / stats wrappers / Augmentations.
	doc, err := ParseDocument(strings.NewReader(universityXML), "u.xml")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := IndexDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := T("hello"); n.Value() != "hello" {
		t.Errorf("T = %q", n.Value())
	}
	resp, err := sys.SearchQuery(NewQuery("karen"), 1)
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("SearchQuery: %v", err)
	}
	if top := sys.TopKeywords(3); len(top) != 3 {
		t.Errorf("TopKeywords = %d", len(top))
	}
	if hist := sys.LabelHistogram(); len(hist) == 0 {
		t.Error("empty label histogram")
	}
	if depths := sys.DepthHistogram(); len(depths) == 0 || depths[0] != 1 {
		t.Errorf("depth histogram = %v", depths)
	}
	ins := sys.Insights(resp, 1)
	if len(ins) == 0 {
		t.Fatal("no insights")
	}
	augs := Augmentations(NewQuery("karen"), ins, 1)
	if len(augs) != 1 || augs[0].Len() != 2 {
		t.Errorf("Augmentations = %+v", augs)
	}
}

func TestSearchContext(t *testing.T) {
	sys := university(t)
	ctx := context.Background()

	resp, err := sys.SearchContext(ctx, "karen mike", 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := searchAt(sys, "karen mike", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(plain.Results) {
		t.Errorf("SearchContext returned %d results, Search %d", len(resp.Results), len(plain.Results))
	}

	if resp, err := sys.Search(ctx, SearchRequest{Query: ParseQuery("karen julie mike"), BestEffort: true}); err != nil || resp.S < 2 {
		t.Errorf("best-effort Search = (%+v, %v)", resp, err)
	}
	if _, err := sys.Search(ctx, SearchRequest{Query: ParseQuery("karen"), S: 1, TopK: 1}); err != nil {
		t.Errorf("top-k Search: %v", err)
	}
	if ex, err := sys.Explain(ctx, ParseQuery("karen mike"), 2); err != nil || ex.SLSize == 0 {
		t.Errorf("Explain = (%+v, %v)", ex, err)
	}
}

func TestSearchContextCanceled(t *testing.T) {
	sys := university(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"SearchContext": func() error { _, err := sys.SearchContext(ctx, "karen", 1); return err },
		"Search best effort": func() error {
			_, err := sys.Search(ctx, SearchRequest{Query: ParseQuery("karen"), BestEffort: true})
			return err
		},
		"Search top-k": func() error {
			_, err := sys.Search(ctx, SearchRequest{Query: ParseQuery("karen"), S: 1, TopK: 1})
			return err
		},
		"Explain": func() error { _, err := sys.Explain(ctx, ParseQuery("karen"), 1); return err },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with canceled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestIndexFilesLenient(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.xml")
	bad := filepath.Join(dir, "bad.xml")
	missing := filepath.Join(dir, "missing.xml")
	if err := writeFile(good, universityXML); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(bad, "<Dept><unclosed>"); err != nil {
		t.Fatal(err)
	}

	sys, skipped, err := IndexFilesLenient(good, bad, missing)
	if err != nil {
		t.Fatalf("lenient batch with one good file errored: %v", err)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %d files (%v), want 2", len(skipped), skipped)
	}
	for _, fe := range skipped {
		if fe.Path != bad && fe.Path != missing {
			t.Errorf("unexpected skipped path %q", fe.Path)
		}
		if fe.Unwrap() == nil || !strings.Contains(fe.Error(), fe.Path) {
			t.Errorf("FileError should carry cause and name the file: %v", fe)
		}
	}
	resp, err := searchAt(sys, "karen", 1)
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("search on lenient-built index: %v / %+v", err, resp)
	}

	// All files unusable: lenient mode still errors rather than returning
	// an empty searchable system.
	if _, _, err := IndexFilesLenient(bad, missing); err == nil {
		t.Error("lenient batch with zero parsable files must error")
	}
	if _, _, err := IndexFilesLenient(); err == nil {
		t.Error("lenient batch with no files must error")
	}
}

func TestLoadIndexFileCorrupt(t *testing.T) {
	sys := university(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "uni.gksidx")
	if err := sys.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"flipped.gksidx":   append(append([]byte(nil), raw[:len(raw)/2]...), append([]byte{raw[len(raw)/2] ^ 0x10}, raw[len(raw)/2+1:]...)...),
		"truncated.gksidx": raw[:len(raw)-5],
		"empty.gksidx":     {},
		"garbage.gksidx":   []byte("this is not an index"),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadIndexFile(p)
		if !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%s: err = %v, want ErrCorruptIndex", name, err)
		}
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error should name the file: %v", name, err)
		}
	}

	// A missing file is an I/O problem, not corruption.
	if _, err := LoadIndexFile(filepath.Join(dir, "nope.gksidx")); err == nil || errors.Is(err, ErrCorruptIndex) {
		t.Errorf("missing file err = %v, want non-nil and not ErrCorruptIndex", err)
	}
}

func TestValidateIndexOnHealthySystem(t *testing.T) {
	if err := university(t).ValidateIndex(); err != nil {
		t.Errorf("ValidateIndex on a freshly built system: %v", err)
	}
}
