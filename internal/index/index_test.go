package index

import (
	"bytes"
	"encoding/gob"
	"sort"
	"testing"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

func buildFig2a(t *testing.T) *Index {
	t.Helper()
	ix, err := BuildDocument(xmltree.BuildFigure2a(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// catOf returns the category of the node with the given Dewey string.
func catOf(t *testing.T, ix *Index, id string) Category {
	t.Helper()
	ord, ok := ix.OrdinalOf(dewey.MustParse(id))
	if !ok {
		t.Fatalf("node %s not found", id)
	}
	return ix.Nodes[ord].Cat
}

func TestFigure2aCategories(t *testing.T) {
	ix := buildFig2a(t)
	cases := []struct {
		id   string
		want Category
		desc string
	}{
		{"0.0", Entity, "Dept is an entity node"},
		{"0.0.0", Attribute, "Dept_Name is an attribute node"},
		{"0.0.1", Entity | Repeating, "Area is both entity and repeating"},
		{"0.0.2", Entity | Repeating, "second Area too"},
		{"0.0.1.0", Attribute, "Area/Name is an attribute node"},
		{"0.0.1.1", Connecting, "Courses is a connecting node"},
		{"0.0.1.1.0", Entity | Repeating, "Course is entity + repeating"},
		{"0.0.1.1.1", Entity | Repeating, "second Course too"},
		{"0.0.1.1.0.0", Attribute, "Course/Name is an attribute node"},
		{"0.0.1.1.0.1", Connecting, "Students is a connecting node"},
		{"0.0.1.1.0.1.0", Repeating, "Student is a repeating node"},
		{"0.0.2.1", Connecting, "single-course Courses is connecting (lowest-LCA rule)"},
		{"0.0.2.1.0", Entity, "single Course is entity but not repeating"},
	}
	for _, c := range cases {
		if got := catOf(t, ix, c.id); got != c.want {
			t.Errorf("%s (%s): category = %v, want %v", c.id, c.desc, got, c.want)
		}
	}
}

func TestFigure2aStats(t *testing.T) {
	ix := buildFig2a(t)
	s := ix.Stats
	if s.ElementNodes != 32 {
		t.Errorf("ElementNodes = %d, want 32", s.ElementNodes)
	}
	if s.AttributeNodes != 7 {
		t.Errorf("AttributeNodes = %d, want 7", s.AttributeNodes)
	}
	if s.RepeatingNodes != 17 {
		t.Errorf("RepeatingNodes = %d, want 17", s.RepeatingNodes)
	}
	if s.EntityNodes != 7 {
		t.Errorf("EntityNodes = %d, want 7", s.EntityNodes)
	}
	if s.ConnectingNodes != 6 {
		t.Errorf("ConnectingNodes = %d, want 6", s.ConnectingNodes)
	}
	if s.MaxDepth != 5 {
		t.Errorf("MaxDepth = %d, want 5", s.MaxDepth)
	}
	if s.Documents != 1 {
		t.Errorf("Documents = %d, want 1", s.Documents)
	}
}

func TestPostingsTable3(t *testing.T) {
	// Table 3 of the paper: Karen appears at did.0.1.1.0.1.0 and
	// did.0.1.1.2.1.0 (and, in our fixture, in the Algorithms course too).
	ix := buildFig2a(t)
	karen := ix.Lookup("Karen")
	want := []string{"0.0.1.1.0.1.0", "0.0.1.1.1.1.0", "0.0.1.1.2.1.0"}
	if len(karen) != len(want) {
		t.Fatalf("karen postings = %d entries, want %d", len(karen), len(want))
	}
	for i, ord := range karen {
		if got := ix.Nodes[ord].ID.String(); got != want[i] {
			t.Errorf("karen[%d] = %s, want %s", i, got, want[i])
		}
	}
	// Mike: Data Mining and AI courses.
	mike := ix.Lookup("Mike")
	if len(mike) != 2 {
		t.Errorf("mike postings = %d, want 2", len(mike))
	}
}

func TestPostingsSortedAndCaseInsensitive(t *testing.T) {
	ix := buildFig2a(t)
	for kw, posts := range ix.Postings {
		for i := 1; i < len(posts); i++ {
			if posts[i-1] >= posts[i] {
				t.Fatalf("postings for %q not strictly increasing: %v", kw, posts)
			}
		}
	}
	if len(ix.Lookup("KAREN")) != len(ix.Lookup("karen")) {
		t.Error("lookup must be case-insensitive")
	}
}

func TestElementNameKeywords(t *testing.T) {
	ix := buildFig2a(t)
	// "Students" and "Student" both stem to "student": 4 + 12 tags.
	students := ix.Lookup("student")
	if len(students) != 16 {
		t.Errorf("student element postings = %d, want 16", len(students))
	}
	course := ix.Lookup("Course")
	// 4 <Course> elements + 1 <Courses>? No: "Courses" stems to "cours" and
	// "Course" stems to "cours" as well, so both tag families share a key.
	if len(course) != 6 {
		t.Errorf("course element postings = %d, want 6 (4 Course + 2 Courses)", len(course))
	}

	// With element-name indexing off, tags are not searchable.
	off, err := BuildDocument(xmltree.BuildFigure2a(), Options{IndexElementNames: false})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.Lookup("student"); got != nil {
		t.Errorf("element names indexed despite opts: %v", got)
	}
	if len(off.Lookup("karen")) == 0 {
		t.Error("text keywords must still be indexed")
	}
}

func TestStemmingUnifiesQueryAndIndex(t *testing.T) {
	ix := buildFig2a(t)
	// "Databases" is indexed; querying "database" must hit the same list.
	a := ix.Lookup("Databases")
	b := ix.Lookup("database")
	if len(a) == 0 || len(a) != len(b) {
		t.Errorf("stem mismatch: %d vs %d postings", len(a), len(b))
	}
}

func TestMultiWordValuesSplit(t *testing.T) {
	ix := buildFig2a(t)
	// "Data Mining" contributes separate entries for data and mining.
	if len(ix.Lookup("data")) == 0 || len(ix.Lookup("mining")) == 0 {
		t.Error("multi-keyword text values must be split into separate entries")
	}
}

func TestSubtreeRangeAndContains(t *testing.T) {
	ix := buildFig2a(t)
	area, _ := ix.OrdinalOf(dewey.MustParse("0.0.1"))
	start, end := ix.SubtreeRange(area)
	if start != area {
		t.Errorf("range start = %d, want %d", start, area)
	}
	// Databases area subtree: Area + Name + Courses + 3×(Course+Name+Students) + 10 students = 22 elements.
	if end-start != 22 {
		t.Errorf("area subtree size = %d, want 22", end-start)
	}
	course0, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0"))
	if !ix.ContainsOrd(area, course0) {
		t.Error("Area must contain Course 0")
	}
	if ix.ContainsOrd(course0, area) {
		t.Error("Course must not contain Area")
	}
}

func TestLowestEntityAncestorOrSelf(t *testing.T) {
	ix := buildFig2a(t)
	student, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0.1.0"))
	e, ok := ix.LowestEntityAncestorOrSelf(student)
	if !ok {
		t.Fatal("student must have an entity ancestor")
	}
	if got := ix.Nodes[e].ID.String(); got != "0.0.1.1.0" {
		t.Errorf("LCE lift of student = %s, want Course 0.0.1.1.0", got)
	}
	// An entity node lifts to itself.
	course, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0"))
	e2, ok := ix.LowestEntityAncestorOrSelf(course)
	if !ok || e2 != course {
		t.Errorf("entity must lift to itself, got %d want %d", e2, course)
	}
}

func TestIsEntityIsElementHelpers(t *testing.T) {
	ix := buildFig2a(t)
	course, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0"))
	if got := ix.IsEntity(course); got != 2 {
		t.Errorf("isEntity(Course) = %d, want child count 2", got)
	}
	students, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0.1"))
	if got := ix.IsEntity(students); got != 0 {
		t.Errorf("isEntity(Students) = %d, want 0", got)
	}
	if got := ix.IsElement(students); got != 3 {
		t.Errorf("isElement(Students) = %d, want 3 (3 Student children)", got)
	}
	name, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0.0"))
	if got := ix.IsElement(name); got != 0 {
		t.Errorf("isElement(attribute Name) = %d, want 0", got)
	}
}

func TestPathLabels(t *testing.T) {
	ix := buildFig2a(t)
	course, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0"))
	name, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0.0"))
	got := ix.PathLabels(course, name)
	want := []string{"Course", "Name"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("PathLabels = %v, want %v", got, want)
	}
	// Cross-branch path is nil.
	other, _ := ix.OrdinalOf(dewey.MustParse("0.0.2"))
	if ix.PathLabels(course, other) != nil {
		t.Error("PathLabels across branches must be nil")
	}
}

func TestValueNodesUnder(t *testing.T) {
	ix := buildFig2a(t)
	course0, _ := ix.OrdinalOf(dewey.MustParse("0.0.1.1.0"))
	vals := ix.ValueNodesUnder(course0)
	// Name + 3 Students.
	if len(vals) != 4 {
		t.Fatalf("value nodes under Course 0 = %d, want 4", len(vals))
	}
	// Area's own value nodes exclude those of nested Course entities.
	area, _ := ix.OrdinalOf(dewey.MustParse("0.0.1"))
	vals = ix.ValueNodesUnder(area)
	if len(vals) != 1 || ix.LabelOf(vals[0]) != "Name" {
		t.Errorf("value nodes under Area = %d (want only its own Name)", len(vals))
	}
}

func TestOrdinalOf(t *testing.T) {
	ix := buildFig2a(t)
	for ord := range ix.Nodes {
		got, ok := ix.OrdinalOf(ix.Nodes[ord].ID)
		if !ok || got != int32(ord) {
			t.Fatalf("OrdinalOf(%s) = %d/%v, want %d", ix.Nodes[ord].ID, got, ok, ord)
		}
	}
	if _, ok := ix.OrdinalOf(dewey.MustParse("0.0.9.9")); ok {
		t.Error("OrdinalOf must fail for missing nodes")
	}
}

func TestMultiDocumentIndex(t *testing.T) {
	var repo xmltree.Repository
	repo.Add(xmltree.BuildFigure2a())
	repo.Add(xmltree.NewDocument("extra.xml", 0, xmltree.E("Dept",
		xmltree.ET("Dept_Name", "EE"),
		xmltree.E("Area",
			xmltree.ET("Name", "Signals"),
			xmltree.E("Courses",
				xmltree.E("Course",
					xmltree.ET("Name", "DSP"),
					xmltree.E("Students",
						xmltree.ET("Student", "Karen"),
						xmltree.ET("Student", "Zoe"),
					),
				),
			),
		),
	)))
	ix, err := Build(&repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	karen := ix.Lookup("karen")
	if len(karen) != 4 {
		t.Fatalf("karen across documents = %d, want 4", len(karen))
	}
	last := ix.Nodes[karen[len(karen)-1]].ID
	if last.Doc != 1 {
		t.Errorf("last karen posting in doc %d, want 1", last.Doc)
	}
	if len(ix.DocNames) != 2 {
		t.Errorf("DocNames = %v", ix.DocNames)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, DefaultOptions()); err == nil {
		t.Error("nil repository must fail")
	}
	if _, err := Build(&xmltree.Repository{}, DefaultOptions()); err == nil {
		t.Error("empty repository must fail")
	}
	bad := &xmltree.Repository{Docs: []*xmltree.Document{{Name: "x"}}}
	if _, err := Build(bad, DefaultOptions()); err == nil {
		t.Error("document without root must fail")
	}
}

// gobV1Image encodes a flat, eager index in the legacy gob format (v1).
// The writer is gone from the package; Load must keep reading the images
// older builds left behind, so the tests make their own.
func gobV1Image(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	p := persisted{
		Version:  formatVersion,
		Labels:   ix.Labels,
		Nodes:    ix.Nodes,
		Postings: ix.Postings,
		DocNames: ix.DocNames,
		Stats:    ix.Stats,
	}
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveLoadRoundTrip: a v1 gob image still loads, whole.
func TestSaveLoadRoundTrip(t *testing.T) {
	ix := buildFig2a(t)
	back, err := Load(bytes.NewReader(gobV1Image(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(ix.Nodes) {
		t.Fatalf("nodes %d != %d", len(back.Nodes), len(ix.Nodes))
	}
	if back.Stats != ix.Stats {
		t.Errorf("stats differ: %+v vs %+v", back.Stats, ix.Stats)
	}
	if len(back.Lookup("karen")) != len(ix.Lookup("karen")) {
		t.Error("postings lost in round trip")
	}
	ord, ok := back.OrdinalOf(dewey.MustParse("0.0.1.1.0"))
	if !ok || back.LabelOf(ord) != "Course" {
		t.Error("node table lost in round trip")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Error("garbage input must fail")
	}
}

func TestSizeBytes(t *testing.T) {
	ix := buildFig2a(t)
	n, err := ix.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("SizeBytes = %d, snapshot encoded = %d", n, buf.Len())
	}
}

// TestSizeBytesPacked pins that SizeBytes reports the shipping v3 size of
// a packed index without flattening it: the count must equal the bytes
// SaveSnapshot writes for the packed form (which serializes the packed
// node section directly), not the legacy flattened gob encoding.
func TestSizeBytesPacked(t *testing.T) {
	packed := buildFig2a(t).Pack()
	if !packed.IsPacked() {
		t.Fatal("Pack() did not pack")
	}
	n, err := packed.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := packed.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("packed SizeBytes = %d, snapshot encoded = %d", n, buf.Len())
	}
	if !packed.IsPacked() {
		t.Error("SizeBytes flattened the packed index")
	}
}

// memSource serves a posting map through the PostingSource interface, so
// lazy-path behavior is testable without a segment file behind it.
type memSource struct{ posts map[string][]int32 }

func (m *memSource) Postings(term string) ([]int32, error) {
	list, ok := m.posts[term]
	if !ok {
		return nil, nil
	}
	return append([]int32(nil), list...), nil
}

func (m *memSource) ForEachTerm(f func(term string, count int) error) error {
	terms := make([]string, 0, len(m.posts))
	for t := range m.posts {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		if err := f(t, len(m.posts[t])); err != nil {
			return err
		}
	}
	return nil
}

func (m *memSource) TermCount() int { return len(m.posts) }

// TestSizeBytesLazy pins that SizeBytes on a lazily-backed index streams
// the postings from the source — the index must stay lazy afterwards, and
// the reported size must equal the eager equivalent's snapshot (the v3
// writer sorts terms either way, so the bytes coincide).
func TestSizeBytesLazy(t *testing.T) {
	eager := buildFig2a(t)
	want, err := eager.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	meta := &Index{
		Labels:   eager.Labels,
		Nodes:    eager.Nodes,
		DocNames: eager.DocNames,
		Stats:    eager.Stats,
		labelIDs: eager.labelIDs,
	}
	lazy := NewLazy(meta, &memSource{posts: eager.Postings})
	got, err := lazy.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("lazy SizeBytes = %d, eager = %d", got, want)
	}
	if !lazy.IsLazy() {
		t.Error("SizeBytes materialized the lazy index")
	}
}

func TestCategoryString(t *testing.T) {
	if got := (Entity | Repeating).String(); got != "RN|EN" {
		t.Errorf("String = %q", got)
	}
	if got := Category(0).String(); got != "none" {
		t.Errorf("zero String = %q", got)
	}
	if got := Attribute.String(); got != "AN" {
		t.Errorf("AN String = %q", got)
	}
}

func TestUnknownKeywordLookup(t *testing.T) {
	ix := buildFig2a(t)
	if got := ix.Lookup("nonexistentword"); got != nil {
		t.Errorf("unknown keyword = %v, want nil", got)
	}
	if got := ix.Lookup("   "); got != nil {
		t.Errorf("blank keyword = %v, want nil", got)
	}
}

func TestDuplicateKeywordsWithinNodeIndexedOnce(t *testing.T) {
	doc := xmltree.NewDocument("dup", 0, xmltree.E("r",
		xmltree.ET("v", "apple apple apple banana"),
	))
	ix, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Lookup("apple")); got != 1 {
		t.Errorf("apple postings = %d, want 1 (deduped per node)", got)
	}
}

func TestMixedContentValueIndexed(t *testing.T) {
	doc, err := xmltree.ParseString("<p>alpha <b>beta</b> gamma</p>", 0, "m")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Lookup("alpha")) != 1 || len(ix.Lookup("gamma")) != 1 {
		t.Error("mixed-content text must be indexed at the containing element")
	}
	if len(ix.Lookup("beta")) != 1 {
		t.Error("nested text must be indexed at <b>")
	}
}
