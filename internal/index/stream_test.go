package index

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// buildBothWays parses src with the tree builder and streams it directly,
// returning both indexes.
func buildBothWays(t *testing.T, src string) (*Index, *Index) {
	t.Helper()
	doc, err := xmltree.ParseString(src, 0, "stream.xml")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := buildStream(strings.NewReader(src), 0, "stream.xml", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tree, stream
}

func TestStreamEqualsTreeOnFixture(t *testing.T) {
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, xmltree.BuildFigure2a()); err != nil {
		t.Fatal(err)
	}
	tree, stream := buildBothWays(t, buf.String())
	assertIndexesEqual(t, tree, stream)
}

func TestStreamEqualsTreeWithAttributes(t *testing.T) {
	const src = `<dblp>
  <article key="a1" mdate="2020-01-02">
    <author>Jane Roe</author>
    <author>John Doe</author>
    <title>On Things</title>
  </article>
  <article key="a2">
    <author>Solo Writer</author>
    <title>Alone</title>
  </article>
</dblp>`
	tree, stream := buildBothWays(t, src)
	assertIndexesEqual(t, tree, stream)
}

func TestStreamEqualsTreeMixedContent(t *testing.T) {
	const src = `<p>alpha <b>beta gamma</b> delta <i>epsilon</i> zeta</p>`
	tree, stream := buildBothWays(t, src)
	assertIndexesEqual(t, tree, stream)
}

func TestStreamEqualsTreeEntities(t *testing.T) {
	const src = `<r><v>a&amp;b</v><v>c &lt; d</v></r>`
	tree, stream := buildBothWays(t, src)
	assertIndexesEqual(t, tree, stream)
}

func TestStreamEqualsTreeOnGeneratedDatasets(t *testing.T) {
	gens := map[string]func() *xmltree.Document{
		"dblp": func() *xmltree.Document {
			return datagen.DBLP(datagen.BibConfig{Config: datagen.Config{Seed: 3}, Entries: 120})
		},
		"mondial": func() *xmltree.Document { return datagen.Mondial(datagen.Config{Seed: 3}) },
		"xmark":   func() *xmltree.Document { return datagen.XMark(datagen.Config{Seed: 3}) },
	}
	for name, gen := range gens {
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, gen()); err != nil {
			t.Fatal(err)
		}
		src := buf.String()
		tree, stream := buildBothWays(t, src)
		t.Run(name, func(t *testing.T) { assertIndexesEqual(t, tree, stream) })
	}
}

func TestStreamEqualsTreeOnRandomDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	words := []string{"ant", "bee", "cat", "dog"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		if depth >= 5 || rng.Intn(3) == 0 {
			return xmltree.ET("v", words[rng.Intn(len(words))])
		}
		n := xmltree.E("e" + string(rune('a'+rng.Intn(3))))
		for i := 0; i < 1+rng.Intn(3); i++ {
			n.Append(build(depth + 1))
		}
		if rng.Intn(4) == 0 { // mixed content
			n.Append(xmltree.T(words[rng.Intn(len(words))]))
		}
		return n
	}
	for trial := 0; trial < 40; trial++ {
		doc := xmltree.NewDocument("rand", 0, build(0))
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, doc); err != nil {
			t.Fatal(err)
		}
		tree, stream := buildBothWays(t, buf.String())
		assertIndexesEqual(t, tree, stream)
	}
}

func TestStreamErrors(t *testing.T) {
	bad := []string{
		"",
		"just text",
		"<a><b></a>",
		"<a/><b/>",
		"<a>",
	}
	for _, src := range bad {
		if _, err := buildStream(strings.NewReader(src), 0, "bad", DefaultOptions()); err == nil {
			t.Errorf("buildStream(%q): expected error", src)
		}
	}
}

func TestBuildStreamFiles(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, xmltree.BuildFigure2a()); err != nil {
			t.Fatal(err)
		}
		paths[i] = dir + "/doc" + string(rune('0'+i)) + ".xml"
		if err := writeTestFile(paths[i], buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := BuildStreamFiles(paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var repo xmltree.Repository
	for _, p := range paths {
		d, err := xmltree.ParseFile(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		repo.Add(d)
	}
	batch, err := Build(&repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Doc names differ (paths vs names) — align before comparing.
	batch.DocNames = streamed.DocNames
	assertIndexesEqual(t, batch, streamed)

	if _, err := BuildStreamFiles(nil, DefaultOptions()); err == nil {
		t.Error("no files must fail")
	}
	if _, err := BuildStreamFiles([]string{dir + "/missing.xml"}, DefaultOptions()); err == nil {
		t.Error("missing file must fail")
	}
}

func writeTestFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// buildStream streams one XML document from r into an index as document
// number num.
func buildStream(r io.Reader, num int32, name string, opts Options) (*Index, error) {
	b := newBuilder(opts, opts.Hint.Nodes)
	if err := b.addStream(r, num, name); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

// TestStreamEqualsTreeAttributeValues: an attribute value is read as
// element text is, through either entry point — trimmed, and no text child
// when nothing is left — so an empty or blank value makes the attribute's
// element a valueless one in both builds.
func TestStreamEqualsTreeAttributeValues(t *testing.T) {
	for _, src := range []string{
		`<r><a k="">t</a><b>u</b></r>`,
		`<r><a k="  ">t</a><b>u</b></r>`,
		`<r><a k=" v ">t</a><b>u</b></r>`,
		`<r k="">x</r>`,
	} {
		tree, stream := buildBothWays(t, src)
		assertIndexesEqual(t, tree, stream)
	}
}

// chainXML is a chain of depth nested <a> elements around one text.
func chainXML(depth int) string {
	return strings.Repeat("<a>", depth) + "x" + strings.Repeat("</a>", depth)
}

// chainDoc is the parsed tree of chainXML(depth), built directly: the
// builder reads no Dewey ID, and numbering a chain costs memory quadratic
// in its depth.
func chainDoc(depth int) *xmltree.Document {
	root := xmltree.E("a")
	n := root
	for i := 1; i < depth; i++ {
		c := xmltree.E("a")
		n.Append(c)
		n = c
	}
	n.Append(xmltree.T("x"))
	return &xmltree.Document{Name: "chain.xml", Root: root}
}

// allocBytes returns the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildLinearInDepth: both drivers of the builder allocate linearly in
// the depth of a document — 4× the depth costs under 6× the bytes, where
// linear growth reads 4 and quadratic 16 — and the streaming build of a
// 16 000-deep chain stays under 32 MiB: no open element holds a copy of
// its Dewey path.
func TestBuildLinearInDepth(t *testing.T) {
	const shallow, deep = 4000, 16000
	drivers := map[string]func(depth int) func(){
		"tree": func(depth int) func() {
			doc := chainDoc(depth)
			return func() {
				if _, err := BuildDocument(doc, DefaultOptions()); err != nil {
					t.Fatal(err)
				}
			}
		},
		"stream": func(depth int) func() {
			src := chainXML(depth)
			return func() {
				if _, err := buildStream(strings.NewReader(src), 0, "chain.xml", DefaultOptions()); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, driver := range drivers {
		small, large := allocBytes(driver(shallow)), allocBytes(driver(deep))
		ratio := float64(large) / float64(small)
		t.Logf("%s: %d B at depth %d, %d B at depth %d (%.2f×)", name, small, shallow, large, deep, ratio)
		if ratio >= 6 {
			t.Errorf("%s: 4× the depth allocates %.2f× the bytes, want under 6×", name, ratio)
		}
		if name == "stream" && large >= 32<<20 {
			t.Errorf("stream: depth %d allocates %.1f MiB, want under 32 MiB", deep, float64(large)/(1<<20))
		}
	}
}
