package xmltree

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/dewey"
)

// figure2a builds the university document of Figure 2(a) of the paper,
// shared by several packages' tests via BuildFigure2a.
func figure2a() *Document { return BuildFigure2a() }

func TestBuildAndIDs(t *testing.T) {
	d := figure2a()
	if d.Root.Label != "Dept" {
		t.Fatalf("root = %s, want Dept", d.Root.Label)
	}
	if got := d.Root.ID.String(); got != "0.0" {
		t.Errorf("root ID = %s, want 0.0", got)
	}
	// Paper: <Name> under first <Area> is n0.1.0, courses are n0.1.1.x.
	area := d.Root.Children[1]
	if area.Label != "Area" || area.ID.String() != "0.0.1" {
		t.Fatalf("Area = %s %s", area.Label, area.ID)
	}
	name := area.Children[0]
	if name.Label != "Name" || name.Value() != "Databases" {
		t.Errorf("Area/Name = %s %q", name.Label, name.Value())
	}
	courses := area.Children[1]
	if courses.Label != "Courses" {
		t.Fatalf("expected Courses, got %s", courses.Label)
	}
	if len(courses.Children) != 3 {
		t.Fatalf("want 3 courses, got %d", len(courses.Children))
	}
	course0 := courses.Children[0]
	if course0.Children[0].Value() != "Data Mining" {
		t.Errorf("course 0 name = %q", course0.Children[0].Value())
	}
}

// TestAssignIDsSharedPaths checks the one-array path layout of AssignIDs:
// every node's path is its parent's plus its ordinal, and growing one path
// leaves every other path as it was.
func TestAssignIDsSharedPaths(t *testing.T) {
	d := figure2a()
	d.DocID = 3
	d.AssignIDs()
	var check func(n *Node, want dewey.ID)
	check = func(n *Node, want dewey.ID) {
		if !dewey.Equal(n.ID, want) {
			t.Fatalf("%s: ID %s, want %s", n.Label, n.ID, want)
		}
		for i, c := range n.Children {
			check(c, want.Child(int32(i)))
		}
	}
	check(d.Root, dewey.Root(3))
	Walk(d.Root, func(n *Node) bool {
		_ = append(n.ID.Path, 99)
		return true
	})
	check(d.Root, dewey.Root(3))
}

func TestFindByID(t *testing.T) {
	d := figure2a()
	found := 0
	Walk(d.Root, func(n *Node) bool {
		if got := d.FindByID(n.ID); got != n {
			t.Fatalf("FindByID(%s) returned wrong node", n.ID)
		}
		found++
		return true
	})
	if found != d.NodeCount() {
		t.Errorf("walked %d nodes, count %d", found, d.NodeCount())
	}
	if d.FindByID(dewey.MustParse("0.0.99")) != nil {
		t.Error("FindByID should return nil for missing node")
	}
	if d.FindByID(dewey.MustParse("5.0")) != nil {
		t.Error("FindByID should return nil for wrong document")
	}
}

func TestWalkPreOrderMatchesDeweyOrder(t *testing.T) {
	d := figure2a()
	var prev dewey.ID
	first := true
	Walk(d.Root, func(n *Node) bool {
		if !first && dewey.Compare(prev, n.ID) >= 0 {
			t.Fatalf("pre-order not increasing: %s then %s", prev, n.ID)
		}
		prev, first = n.ID, false
		return true
	})
}

func TestWalkPrune(t *testing.T) {
	d := figure2a()
	visited := 0
	Walk(d.Root, func(n *Node) bool {
		visited++
		return n.Label != "Area" // prune both Area subtrees
	})
	// Dept + Dept_Name + its text + 2 Areas.
	if visited != 5 {
		t.Errorf("visited %d nodes, want 5", visited)
	}
}

func TestParseBasic(t *testing.T) {
	const doc = `<?xml version="1.0"?>
<dblp>
  <article key="a1">
    <author>Jane Roe</author>
    <title>On Things</title>
    <year>2001</year>
  </article>
</dblp>`
	d, err := ParseString(doc, 0, "test.xml")
	if err != nil {
		t.Fatal(err)
	}
	if d.Root.Label != "dblp" {
		t.Fatalf("root = %s", d.Root.Label)
	}
	article := d.Root.Children[0]
	if article.Label != "article" {
		t.Fatalf("child = %s", article.Label)
	}
	// Attribute normalized to leading child element.
	if article.Children[0].Label != "key" || article.Children[0].Value() != "a1" {
		t.Errorf("attribute child = %s %q", article.Children[0].Label, article.Children[0].Value())
	}
	if article.Children[1].Value() != "Jane Roe" {
		t.Errorf("author = %q", article.Children[1].Value())
	}
	if d.Depth() != 3 {
		t.Errorf("depth = %d, want 3", d.Depth())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a><b></a>",
		"<a></a><b></b>",
		"   just text   ",
		"<a>",
	}
	for _, src := range cases {
		if _, err := ParseString(src, 0, "bad.xml"); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestParseMixedContentAndWhitespace(t *testing.T) {
	d, err := ParseString("<p>  hello <b>bold</b> world  </p>", 0, "mixed.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Root.Children) != 3 {
		t.Fatalf("mixed content children = %d, want 3", len(d.Root.Children))
	}
	if d.Root.Children[0].Text != "hello" || d.Root.Children[2].Text != "world" {
		t.Errorf("text children = %q, %q", d.Root.Children[0].Text, d.Root.Children[2].Text)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := figure2a()
	var buf bytes.Buffer
	if err := WriteXML(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf, 0, "roundtrip.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !equalTrees(orig.Root, back.Root) {
		t.Error("round-trip changed the tree")
	}
}

func TestWriteEscapes(t *testing.T) {
	d := NewDocument("esc", 0, E("r", ET("v", `a<b & "c"`)))
	var buf bytes.Buffer
	if err := WriteXML(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf, 0, "esc")
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Root.Children[0].Value(); got != `a<b & "c"` {
		t.Errorf("escaped value = %q", got)
	}
}

func TestXMLSize(t *testing.T) {
	d := figure2a()
	sz, err := XMLSize(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteXML(&buf, d); err != nil {
		t.Fatal(err)
	}
	if sz != int64(buf.Len()) {
		t.Errorf("XMLSize = %d, buffer = %d", sz, buf.Len())
	}
}

func TestRepository(t *testing.T) {
	var repo Repository
	d1 := NewDocument("one", 0, E("r", ET("a", "x")))
	d2 := NewDocument("two", 0, E("r", ET("b", "y")))
	repo.Add(d1)
	repo.Add(d2)
	if d2.DocID != 1 {
		t.Errorf("second doc renumbered to %d, want 1", d2.DocID)
	}
	if d2.Root.ID.Doc != 1 {
		t.Errorf("second doc root dewey doc = %d, want 1", d2.Root.ID.Doc)
	}
	n := repo.FindByID(dewey.MustParse("1.0.0"))
	if n == nil || n.Label != "b" {
		t.Fatalf("FindByID across docs = %v", n)
	}
	if repo.FindByID(dewey.MustParse("7.0")) != nil {
		t.Error("missing doc should give nil")
	}
	if repo.NodeCount() != d1.NodeCount()+d2.NodeCount() {
		t.Error("repository node count mismatch")
	}
}

func TestValueAndDirectlyContainsValue(t *testing.T) {
	leaf := ET("Name", "Data Mining")
	if !leaf.DirectlyContainsValue() {
		t.Error("ET node must directly contain its value")
	}
	if leaf.Value() != "Data Mining" {
		t.Errorf("Value = %q", leaf.Value())
	}
	inner := E("Course", leaf, E("Students"))
	if inner.DirectlyContainsValue() {
		t.Error("element with element children must not directly contain value")
	}
	if inner.Value() != "" {
		t.Errorf("inner Value = %q, want empty", inner.Value())
	}
	txt := T("abc")
	if txt.Value() != "abc" {
		t.Errorf("text Value = %q", txt.Value())
	}
}

func TestRandomTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	labels := []string{"a", "b", "c", "d", "e"}
	words := []string{"alpha", "beta", "gamma", "delta"}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		n := E(labels[rng.Intn(len(labels))])
		if depth >= 5 || rng.Intn(3) == 0 {
			n.Append(T(words[rng.Intn(len(words))]))
			return n
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			n.Append(build(depth + 1))
		}
		return n
	}
	for trial := 0; trial < 25; trial++ {
		d := NewDocument("rand", 0, build(0))
		var buf bytes.Buffer
		if err := WriteXML(&buf, d); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&buf, 0, "rand")
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		if !equalTrees(d.Root, back.Root) {
			t.Fatalf("trial %d: round-trip mismatch\n%s", trial, buf.String())
		}
	}
}

func equalTrees(a, b *Node) bool {
	if a.Kind != b.Kind || a.Label != b.Label {
		return false
	}
	if a.Kind == Text && strings.Join(strings.Fields(a.Text), " ") != strings.Join(strings.Fields(b.Text), " ") {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !equalTrees(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestElementCount(t *testing.T) {
	d := figure2a()
	if got := d.ElementCount(); got != 32 {
		t.Errorf("ElementCount = %d, want 32", got)
	}
	if d.ElementCount() >= d.NodeCount() {
		t.Error("element count must exclude text nodes")
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/doc.xml"
	var buf bytes.Buffer
	if err := WriteXML(&buf, figure2a()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ParseFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.DocID != 2 || d.Root.Label != "Dept" {
		t.Errorf("ParseFile doc = %d %s", d.DocID, d.Root.Label)
	}
	if _, err := ParseFile(dir+"/missing.xml", 0); err == nil {
		t.Error("missing file must error")
	}
}

func TestBuildFigure1Shape(t *testing.T) {
	d := BuildFigure1()
	if d.Root.Label != "r" || len(d.Root.Children) != 2 {
		t.Fatalf("figure 1 root = %s with %d children", d.Root.Label, len(d.Root.Children))
	}
	if got := d.Root.Children[0].Label; got != "x1" {
		t.Errorf("first child = %s", got)
	}
}
