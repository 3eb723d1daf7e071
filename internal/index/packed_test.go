package index

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// packedRepos builds the repositories the packed-table tests sweep: the
// paper's running examples, a repetitive replicated repository (whole
// documents dedup into instances) and low-repetition generator shapes.
// Every call builds fresh documents, so a caller may mutate them.
func packedRepos() map[string]*xmltree.Repository {
	multi := &xmltree.Repository{}
	multi.Add(xmltree.BuildFigure2a())
	multi.Add(xmltree.BuildFigure1())
	fig2a := &xmltree.Repository{}
	fig2a.Add(xmltree.BuildFigure2a())
	return map[string]*xmltree.Repository{
		"fig2a": fig2a,
		"multi": multi,
		"replicated": datagen.Replicate(func() *xmltree.Document {
			return datagen.SigmodRecord(datagen.BibConfig{Config: datagen.Config{Seed: 7}, Entries: 40})
		}, 4),
		"dblp": datagen.Repo(datagen.DBLP(datagen.BibConfig{
			Config: datagen.Config{Seed: 11}, Entries: 150,
		})),
		"dblp-dup": datagen.Repo(datagen.DBLP(datagen.BibConfig{
			Config: datagen.Config{Seed: 11}, Entries: 150, DupFraction: 0.6,
		})),
		"mondial": datagen.Repo(datagen.Mondial(datagen.Config{Seed: 5})),
	}
}

// packedCorpus is one packedRepos entry built both ways: the served index
// and the builder's flat table it must reproduce.
type packedCorpus struct {
	ix   *Index
	flat *Index
}

func packedCorpora(t *testing.T) map[string]packedCorpus {
	t.Helper()
	out := map[string]packedCorpus{}
	for name, repo := range packedRepos() {
		ix, err := Build(repo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = packedCorpus{ix: ix, flat: flatBuild(t, repo)}
	}
	return out
}

// assertAccessorsMatch is the accessor oracle: every per-ordinal accessor
// of ix must return the field of the flat reference row at the same
// ordinal, for every row of the table.
func assertAccessorsMatch(t *testing.T, label string, want *Index, ix *Index) {
	t.Helper()
	if n := ix.NodeCount(); n != len(want.nodes) {
		t.Fatalf("%s: %d rows, want %d", label, n, len(want.nodes))
	}
	root := int32(-1)
	var records []int32
	for i := range want.nodes {
		w, ord := &want.nodes[i], int32(i)
		if w.Parent < 0 {
			root = ord
		}
		if w.Parent < 0 || want.nodes[w.Parent].Parent < 0 {
			records = append(records, ord)
		}
		docRoot := ix.cols.docStart[ix.cols.docSlot(ord)]
		docEnd := docRoot + ix.SubtreeSizeOf(docRoot)
		switch {
		case docRoot != root || docEnd != root+want.nodes[root].Subtree:
			t.Fatalf("%s: ord %d: document range [%d,%d), want [%d,%d)", label, ord, docRoot, docEnd, root, root+want.nodes[root].Subtree)
		case ix.Labels[ix.LabelIDOf(ord)] != want.Labels[w.Label]:
			t.Fatalf("%s: ord %d: label %q, want %q", label, ord, ix.Labels[ix.LabelIDOf(ord)], want.Labels[w.Label])
		case ix.CatOf(ord) != w.Cat:
			t.Fatalf("%s: ord %d: cat %v, want %v", label, ord, ix.CatOf(ord), w.Cat)
		case ix.ChildCountOf(ord) != w.ChildCount:
			t.Fatalf("%s: ord %d: child count %d, want %d", label, ord, ix.ChildCountOf(ord), w.ChildCount)
		case ix.SubtreeSizeOf(ord) != w.Subtree:
			t.Fatalf("%s: ord %d: subtree %d, want %d", label, ord, ix.SubtreeSizeOf(ord), w.Subtree)
		case ix.ParentOf(ord) != w.Parent:
			t.Fatalf("%s: ord %d: parent %d, want %d", label, ord, ix.ParentOf(ord), w.Parent)
		case ix.DepthOf(ord) != int32(w.ID.Depth()):
			t.Fatalf("%s: ord %d: depth %d, want %d", label, ord, ix.DepthOf(ord), w.ID.Depth())
		case ix.HasValueAt(ord) != w.HasValue:
			t.Fatalf("%s: ord %d: has-value %v, want %v", label, ord, ix.HasValueAt(ord), w.HasValue)
		case ix.ValueAt(ord) != w.Value:
			t.Fatalf("%s: ord %d: value %q, want %q", label, ord, ix.ValueAt(ord), w.Value)
		case !dewey.Equal(ix.IDOf(ord), w.ID):
			t.Fatalf("%s: ord %d: id %v, want %v", label, ord, ix.IDOf(ord), w.ID)
		case ix.DocOf(ord) != w.ID.Doc:
			t.Fatalf("%s: ord %d: doc %d, want %d", label, ord, ix.DocOf(ord), w.ID.Doc)
		}
		got, ok := ix.OrdinalOf(w.ID)
		if live := ix.LiveOrd(ord); ok != live || (ok && got != ord) {
			t.Fatalf("%s: ord %d (live %v): OrdinalOf(%v) = %d, %v", label, ord, live, w.ID, got, ok)
		}
	}
	// The record column: every root and every depth-1 node, in order.
	if !slices.Equal(ix.Records(), records) {
		t.Fatalf("%s: record column %v, want %v", label, ix.Records(), records)
	}
}

func TestPackAccessorsMatchFlat(t *testing.T) {
	for name, c := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			if err := c.ix.Validate(); err != nil {
				t.Fatalf("packed index fails validation: %v", err)
			}
			assertAccessorsMatch(t, name, c.flat, c.ix)

			p := packNodes(c.ix.cols)
			t.Logf("%s: %d nodes, %d B of columns vs flat %d B; encoded as %d spine + %d instances of %d shapes (%d shape nodes), %d values (%d B)",
				name, p.n, c.ix.NodeTableBytes(), flatNodeBytes(c.flat.nodes), len(p.spLabel), len(p.inStart),
				len(p.shOff)-1, len(p.shLabel), len(p.valOff)-1, len(p.valArena))
		})
	}
}

// TestPackUnpackedRoundTrip: expanding the column table gives back exactly
// the rows the builder sealed.
func TestPackUnpackedRoundTrip(t *testing.T) {
	for name, c := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			got := rows(c.ix)
			for i := range c.flat.nodes {
				w, g := &c.flat.nodes[i], &got[i]
				if !dewey.Equal(w.ID, g.ID) || w.Label != g.Label || w.Cat != g.Cat ||
					w.ChildCount != g.ChildCount || w.Subtree != g.Subtree ||
					w.Parent != g.Parent || w.HasValue != g.HasValue || w.Value != g.Value {
					t.Fatalf("row %d: %+v, want %+v", i, g, w)
				}
			}
		})
	}
}

func TestPackIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := packedCorpora(t)["replicated"].ix.SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := packedCorpora(t)["replicated"].ix.SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("packing + serialization must be deterministic")
	}
}

func TestPackedOrdinalOf(t *testing.T) {
	c := packedCorpora(t)["replicated"]
	for i := range c.flat.nodes {
		got, ok := c.ix.OrdinalOf(c.flat.nodes[i].ID)
		if !ok || got != int32(i) {
			t.Fatalf("ord %d: OrdinalOf(%v) = %d, %v", i, c.flat.nodes[i].ID, got, ok)
		}
	}
	// A Dewey ID that is not in the table must not be found.
	if _, ok := c.ix.OrdinalOf(dewey.ID{Doc: 9999, Path: []int32{1, 2, 3}}); ok {
		t.Fatal("absent id must not resolve")
	}
}

func TestPackedDedupsReplicatedDocs(t *testing.T) {
	// Four identical replicas: at least three document roots must collapse
	// into instances of the first replica's shape, and the encoded meta
	// section must take at most half the bytes of the flat one.
	c := packedCorpora(t)["replicated"]
	if n := len(packNodes(c.ix.cols).inStart); n < 3 {
		t.Fatalf("expected ≥3 instances from 4 identical replicas, got %d", n)
	}
	var meta bytes.Buffer
	arena, err := EncodeMeta(&meta, c.ix)
	if err != nil {
		t.Fatal(err)
	}
	if fb, pb := len(flatMeta(t, c.ix)), meta.Len()+len(arena); pb*2 > fb {
		t.Errorf("replicated corpus should encode to <1/2 of flat: packed %d B vs flat %d B", pb, fb)
	}
}

func TestPackedBinaryRoundTrip(t *testing.T) {
	for name, c := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.ix.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("loaded packed index fails validation: %v", err)
			}
			assertAccessorsMatch(t, name, c.flat, back)
			assertIndexesEqual(t, c.ix, back)
		})
	}
}

func TestPackedSnapshotRoundTrip(t *testing.T) {
	c := packedCorpora(t)["dblp-dup"]
	var buf bytes.Buffer
	if err := c.ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertAccessorsMatch(t, "snapshot", c.flat, back)
}

func TestPackedMetaRoundTrip(t *testing.T) {
	for name, c := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			arena, err := EncodeMeta(&buf, c.ix)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeMeta(bytes.NewReader(buf.Bytes()), int64(buf.Len()), bytes.Clone(arena))
			if err != nil {
				t.Fatal(err)
			}
			assertAccessorsMatch(t, name, c.flat, back)
		})
	}
}

func TestPackedCodecRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := packedCorpora(t)["replicated"].ix.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Every truncation must fail typed as ErrCorrupt, never panic.
	for cut := 0; cut < len(full); cut += 1 + len(full)/257 {
		_, err := Load(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes must fail", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d bytes: error not typed ErrCorrupt: %v", cut, err)
		}
	}
	// Bit flips must be caught by the loader (typed ErrCorrupt) or by the
	// Validate pass every reload path runs before swapping an index in; a
	// flip inside a value string is legal data and passes both. No outcome
	// may panic.
	for pos := 0; pos < len(full); pos += 1 + len(full)/509 {
		for _, bit := range []byte{0x01, 0x80} {
			dam := append([]byte(nil), full...)
			dam[pos] ^= bit
			ix, err := Load(bytes.NewReader(dam))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("bit flip at %d: error not typed ErrCorrupt: %v", pos, err)
				}
				continue
			}
			_ = ix.Validate() // either verdict is fine; must not panic
		}
	}
	// Images whose instance ranges, shape indexes or spine count break
	// what expansion indexes by must fail typed before it runs.
	for name, img := range damagedNodeImages(t, packedCorpora(t)["replicated"].ix) {
		if _, err := Load(bytes.NewReader(img)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load error %v, want ErrCorrupt", name, err)
		}
	}
}

// damagedNodeImages are GKSI images of ix whose node encoding breaks one of
// the rules expansion relies on, keyed by the rule. ix's encoding needs at
// least two instances.
func damagedNodeImages(tb testing.TB, ix *Index) map[string][]byte {
	tb.Helper()
	good := packNodes(ix.cols)
	last := len(good.inStart) - 1
	if last < 1 {
		tb.Fatalf("encoding holds %d instances, want at least 2", last+1)
	}
	damage := map[string]func(p *dagImage){
		"instance past the node count": func(p *dagImage) { p.inStart[last] = p.n },
		"overlapping instances":        func(p *dagImage) { p.inStart[1] = p.inStart[0] },
		"shape past the shape table":   func(p *dagImage) { p.inShape[0] = int32(len(p.shOff) - 1) },
		// The ordinals the dropped instance covered are left to the spine.
		"spine count disagrees with the ranges": func(p *dagImage) { p.inStart = p.inStart[:last] },
	}
	out := make(map[string][]byte, len(damage))
	for name, fn := range damage {
		p := *good
		p.inStart, p.inShape = slices.Clone(good.inStart), slices.Clone(good.inShape)
		fn(&p)
		var buf bytes.Buffer
		w := &binWriter{bw: bufio.NewWriter(&buf)}
		w.bw.WriteString(binaryMagic)
		w.uvarint(binaryVersionPacked)
		w.writeMeta(ix, &p, true)
		if err := w.writePostingsAndStats(ix); err != nil {
			tb.Fatal(err)
		}
		if err := w.bw.Flush(); err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestPackedDeleteAndCompact: a delete tombstones against the shared
// column table, and compaction copies the survivors into exactly the
// table a cold build of them produces.
func TestPackedDeleteAndCompact(t *testing.T) {
	repo := packedRepos()["replicated"]
	ix, err := Build(repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	del, err := ix.DeleteDoc(ix.DocNames[1])
	if err != nil {
		t.Fatal(err)
	}
	if del.cols != ix.cols {
		t.Fatal("a delete must share the predecessor's node table")
	}
	survivors := &xmltree.Repository{Docs: append([]*xmltree.Document{repo.Docs[0]}, repo.Docs[2:]...)}
	cold, err := Build(survivors, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if del.Stats != cold.Stats {
		t.Fatalf("tombstoned stats %+v, want %+v", del.Stats, cold.Stats)
	}

	comp := del.Compacted()
	assertAccessorsMatch(t, "compacted", flatBuild(t, survivors), comp)

	// The compacted table must encode byte for byte as a cold build's.
	var a, b bytes.Buffer
	if err := comp.SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := cold.SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("compacted table must encode byte for byte as a cold build of the survivors")
	}
}

func TestPackedTextInterleavingNotMerged(t *testing.T) {
	// <a>text<b/></a> and <a><b/>text</a> have identical element
	// structure but different sibling Dewey components; their subtrees
	// must NOT share a shape. Build two such parents plus duplicates so
	// both shapes qualify for dedup.
	root := xmltree.E("r")
	for i := 0; i < 2; i++ {
		a1 := xmltree.E("a")
		a1.Append(xmltree.T("text before"))
		a1.Append(xmltree.E("b"))
		root.Append(a1)
		a2 := xmltree.E("a")
		a2.Append(xmltree.E("b"))
		a2.Append(xmltree.T("text before"))
		root.Append(a2)
	}
	repo := &xmltree.Repository{Docs: []*xmltree.Document{xmltree.NewDocument("interleave.xml", 0, root)}}
	ix, err := Build(repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	assertAccessorsMatch(t, "interleave", flatBuild(t, repo), ix)
}

func TestNodeTableBytesAccounting(t *testing.T) {
	c := packedCorpora(t)["dblp-dup"]
	fb, pb := flatNodeBytes(c.flat.nodes), c.ix.NodeTableBytes()
	if fb <= 0 || pb <= 0 {
		t.Fatalf("node table byte accounting must be positive: flat %d, columns %d", fb, pb)
	}
	if pb >= fb {
		t.Errorf("column table (%d B) should be smaller than flat (%d B)", pb, fb)
	}
	t.Log(fmt.Sprintf("flat %d B, columns %d B (%.2fx)", fb, pb, float64(fb)/float64(pb)))
}

// TestValidateRejectsBadRecordColumn: the record column must tile the
// table into roots and depth-1 subtrees; a column missing a bound, holding
// a deeper node or out of order fails validation.
func TestValidateRejectsBadRecordColumn(t *testing.T) {
	c := packedCorpora(t)["dblp-dup"]
	good := c.ix.cols.recStart
	if err := c.ix.Validate(); err != nil {
		t.Fatal(err)
	}
	var deep int32 = -1
	for ord := int32(0); ord < int32(c.ix.NodeCount()); ord++ {
		if c.ix.DepthOf(ord) == 2 {
			deep = ord
			break
		}
	}
	if deep < 0 {
		t.Fatal("corpus has no depth-2 node")
	}
	for name, bad := range map[string][]int32{
		"missing bound": slices.Delete(slices.Clone(good), 1, 2),
		"deeper node":   slices.Insert(slices.Clone(good), sort.Search(len(good), func(i int) bool { return good[i] > deep }), deep),
		"out of order":  append(slices.Clone(good[1:]), good[0]),
		"empty":         nil,
	} {
		p := *c.ix.cols
		p.recStart = bad
		ix := *c.ix
		ix.cols = &p
		if err := ix.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}
