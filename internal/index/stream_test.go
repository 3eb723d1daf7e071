package index

import (
	"bytes"
	"io"
	"math/rand"
	"os"
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
	stream, err := packing(buildStream(strings.NewReader(src), 0, "stream.xml", DefaultOptions()))
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

// buildStream streams one XML document from r into a flat table as
// document docID.
func buildStream(r io.Reader, docID int32, name string, opts Options) (*Index, error) {
	b := newStreamBuilder(opts)
	if err := b.add(r, docID, name); err != nil {
		return nil, err
	}
	return b.finish(), nil
}
