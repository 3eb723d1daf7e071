package index

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// packedCorpora builds the corpora the packed-table tests sweep: the
// paper's running examples, a repetitive replicated repository (whole
// documents dedup into instances) and low-repetition generator shapes.
func packedCorpora(t *testing.T) map[string]*Index {
	t.Helper()
	build := func(repo *xmltree.Repository) *Index {
		ix, err := Build(repo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	multi := &xmltree.Repository{}
	multi.Add(xmltree.BuildFigure2a())
	multi.Add(xmltree.BuildFigure1())
	return map[string]*Index{
		"fig2a": buildFig2a(t),
		"multi": build(multi),
		"replicated": build(datagen.Replicate(func() *xmltree.Document {
			return datagen.SigmodRecord(datagen.BibConfig{Config: datagen.Config{Seed: 7}, Entries: 40})
		}, 4)),
		"dblp": build(datagen.Repo(datagen.DBLP(datagen.BibConfig{
			Config: datagen.Config{Seed: 11}, Entries: 150,
		}))),
		"dblp-dup": build(datagen.Repo(datagen.DBLP(datagen.BibConfig{
			Config: datagen.Config{Seed: 11}, Entries: 150, DupFraction: 0.6,
		}))),
		"mondial": build(datagen.Repo(datagen.Mondial(datagen.Config{Seed: 5}))),
	}
}

// assertAccessorsEqual compares every per-ordinal accessor of two indexes
// that must describe identical logical tables (one may be packed).
func assertAccessorsEqual(t *testing.T, flat, packed *Index) {
	t.Helper()
	if flat.NodeCount() != packed.NodeCount() {
		t.Fatalf("node counts differ: %d vs %d", flat.NodeCount(), packed.NodeCount())
	}
	for ord := int32(0); ord < int32(flat.NodeCount()); ord++ {
		if a, b := flat.LabelIDOf(ord), packed.LabelIDOf(ord); a != b {
			t.Fatalf("ord %d: label %d vs %d", ord, a, b)
		}
		if a, b := flat.CatOf(ord), packed.CatOf(ord); a != b {
			t.Fatalf("ord %d: cat %v vs %v", ord, a, b)
		}
		if a, b := flat.ChildCountOf(ord), packed.ChildCountOf(ord); a != b {
			t.Fatalf("ord %d: child count %d vs %d", ord, a, b)
		}
		if a, b := flat.SubtreeSizeOf(ord), packed.SubtreeSizeOf(ord); a != b {
			t.Fatalf("ord %d: subtree %d vs %d", ord, a, b)
		}
		if a, b := flat.ParentOf(ord), packed.ParentOf(ord); a != b {
			t.Fatalf("ord %d: parent %d vs %d", ord, a, b)
		}
		if a, b := flat.DepthOf(ord), packed.DepthOf(ord); a != b {
			t.Fatalf("ord %d: depth %d vs %d", ord, a, b)
		}
		if a, b := flat.HasValueAt(ord), packed.HasValueAt(ord); a != b {
			t.Fatalf("ord %d: has-value %v vs %v", ord, a, b)
		}
		if a, b := flat.ValueAt(ord), packed.ValueAt(ord); a != b {
			t.Fatalf("ord %d: value %q vs %q", ord, a, b)
		}
		if a, b := flat.IDOf(ord), packed.IDOf(ord); !dewey.Equal(a, b) {
			t.Fatalf("ord %d: id %v vs %v", ord, a, b)
		}
		if a, b := flat.DocOf(ord), packed.DocOf(ord); a != b {
			t.Fatalf("ord %d: doc %d vs %d", ord, a, b)
		}
	}
}

func TestPackAccessorsMatchFlat(t *testing.T) {
	for name, flat := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			packed := flat.Pack()
			if !packed.IsPacked() || flat.IsPacked() {
				t.Fatal("Pack must produce a packed copy and leave the flat source flat")
			}
			if err := packed.Validate(); err != nil {
				t.Fatalf("packed index fails validation: %v", err)
			}
			assertAccessorsEqual(t, flat, packed)

			p := packed.packed
			t.Logf("%s: %d nodes → %d spine + %d instances of %d shapes (%d shape nodes), %d values (%d B); %d B vs flat %d B",
				name, len(p.ordInst), len(p.spLabel), len(p.inStart), len(p.shOff)-1, len(p.shLabel),
				len(p.valOff)-1, len(p.valArena), packed.NodeTableBytes(), flat.NodeTableBytes())
		})
	}
}

func TestPackUnpackedRoundTrip(t *testing.T) {
	for name, flat := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			back := flat.Pack().Unpacked()
			if back.IsPacked() {
				t.Fatal("Unpacked must return a flat index")
			}
			assertIndexesEqual(t, flat, back)
		})
	}
}

func TestPackIsDeterministic(t *testing.T) {
	flat := packedCorpora(t)["replicated"]
	var a, b bytes.Buffer
	if err := flat.Pack().SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := flat.Pack().SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("packing + serialization must be deterministic")
	}
}

func TestPackedOrdinalOf(t *testing.T) {
	flat := packedCorpora(t)["replicated"]
	packed := flat.Pack()
	for ord := int32(0); ord < int32(flat.NodeCount()); ord++ {
		got, ok := packed.OrdinalOf(flat.IDOf(ord))
		if !ok || got != ord {
			t.Fatalf("ord %d: OrdinalOf(%v) = %d, %v", ord, flat.IDOf(ord), got, ok)
		}
	}
	// A Dewey ID that is not in the table must not be found.
	if _, ok := packed.OrdinalOf(dewey.ID{Doc: 9999, Path: []int32{1, 2, 3}}); ok {
		t.Fatal("absent id must not resolve")
	}
}

func TestPackedDedupsReplicatedDocs(t *testing.T) {
	// Four identical replicas: at least three document roots must collapse
	// into instances of the first replica's shape.
	flat := packedCorpora(t)["replicated"]
	packed := flat.Pack()
	if n := len(packed.packed.inStart); n < 3 {
		t.Fatalf("expected ≥3 instances from 4 identical replicas, got %d", n)
	}
	if fb, pb := flat.NodeTableBytes(), packed.NodeTableBytes(); pb*2 > fb {
		t.Errorf("replicated corpus should pack to <1/2 of flat: packed %d B vs flat %d B", pb, fb)
	}
}

func TestPackedBinaryRoundTrip(t *testing.T) {
	for name, flat := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			packed := flat.Pack()
			var buf bytes.Buffer
			if err := packed.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !back.IsPacked() {
				t.Fatal("v3 image must load packed")
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("loaded packed index fails validation: %v", err)
			}
			assertAccessorsEqual(t, flat, back)
			assertIndexesEqual(t, flat, back.Unpacked())
		})
	}
}

func TestPackedSnapshotRoundTrip(t *testing.T) {
	flat := packedCorpora(t)["dblp-dup"]
	packed := flat.Pack()
	var buf bytes.Buffer
	if err := packed.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsPacked() {
		t.Fatal("snapshot of a packed index must load packed")
	}
	assertAccessorsEqual(t, flat, back)
}

func TestPackedMetaRoundTrip(t *testing.T) {
	for name, flat := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			packed := flat.Pack()
			var buf bytes.Buffer
			if err := EncodeMeta(&buf, packed); err != nil {
				t.Fatal(err)
			}
			back, err := DecodeMeta(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if !back.IsPacked() {
				t.Fatal("packed meta must decode packed")
			}
			assertAccessorsEqual(t, flat, back)
		})
	}
}

func TestPackedCodecRejectsDamage(t *testing.T) {
	flat := packedCorpora(t)["replicated"]
	var buf bytes.Buffer
	if err := flat.Pack().SaveBinary(&buf); err != nil {
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
}

func TestPackedDeleteAndCompact(t *testing.T) {
	flat := packedCorpora(t)["replicated"]
	packed := flat.Pack()

	delP, err := packed.DeleteDoc(packed.DocNames[1])
	if err != nil {
		t.Fatal(err)
	}
	if !delP.IsPacked() {
		t.Fatal("deleting from a packed index must keep it packed")
	}
	delF, err := flat.DeleteDoc(flat.DocNames[1])
	if err != nil {
		t.Fatal(err)
	}
	if delP.Stats != delF.Stats {
		t.Fatalf("tombstoned stats differ: %+v vs %+v", delP.Stats, delF.Stats)
	}

	compP, compF := delP.Compacted(), delF.Compacted()
	if !compP.IsPacked() {
		t.Fatal("compacting a packed index must re-pack")
	}
	assertAccessorsEqual(t, compF, compP)
	assertIndexesEqual(t, compF, compP.Unpacked())

	// The re-packed table must byte-match a cold rebuild's pack.
	var a, b bytes.Buffer
	if err := compP.SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := compF.Pack().SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("compacted re-pack must byte-match packing the compacted flat table")
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
	doc := xmltree.NewDocument("interleave.xml", 0, root)
	flat, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	packed := flat.Pack()
	if err := packed.Validate(); err != nil {
		t.Fatal(err)
	}
	assertAccessorsEqual(t, flat, packed)
}

func TestNodeTableBytesAccounting(t *testing.T) {
	flat := packedCorpora(t)["dblp-dup"]
	packed := flat.Pack()
	fb, pb := flat.NodeTableBytes(), packed.NodeTableBytes()
	if fb <= 0 || pb <= 0 {
		t.Fatalf("node table byte accounting must be positive: flat %d, packed %d", fb, pb)
	}
	if pb >= fb {
		t.Errorf("packed table (%d B) should be smaller than flat (%d B)", pb, fb)
	}
	t.Log(fmt.Sprintf("flat %d B, packed %d B (%.2fx)", fb, pb, float64(fb)/float64(pb)))
}
