package index

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

func TestBinaryRoundTrip(t *testing.T) {
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
}

func TestLoadAutoDetectsBinary(t *testing.T) {
	ix := buildFig2a(t)
	var bin bytes.Buffer
	if err := ix.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromBin, err := Load(&bin)
	if err != nil {
		t.Fatalf("auto-detect binary: %v", err)
	}
	fromGob, err := Load(bytes.NewReader(gobV1Image(t, ix)))
	if err != nil {
		t.Fatalf("auto-detect gob: %v", err)
	}
	assertIndexesEqual(t, fromBin, fromGob)
}

func TestBinaryRoundTripLargeDataset(t *testing.T) {
	doc := datagen.PaperDBLP(1)
	ix, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
}

func TestBinarySmallerThanGob(t *testing.T) {
	doc := datagen.SwissProt(datagen.Config{Seed: 3})
	ix, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := ix.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	gobLen := len(gobV1Image(t, ix))
	if bin.Len() >= gobLen {
		t.Errorf("binary format (%d bytes) should beat gob (%d bytes)", bin.Len(), gobLen)
	}
	t.Logf("binary %d bytes vs gob %d bytes (%.1f%%)",
		bin.Len(), gobLen, 100*float64(bin.Len())/float64(gobLen))
}

func TestBinaryLoadErrors(t *testing.T) {
	if _, err := LoadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := LoadBinary(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := LoadBinary(bytes.NewReader([]byte("GKSI\x63"))); err == nil {
		t.Error("bad version must fail")
	}
	// Truncations at every prefix length must fail, not panic.
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, 20, 50, 100, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := LoadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes must fail", cut)
		}
	}
}

func TestBinaryDeterministic(t *testing.T) {
	ix := buildFig2a(t)
	var a, b bytes.Buffer
	if err := ix.SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("binary serialization must be deterministic")
	}
}

func assertIndexesEqual(t *testing.T, a, b *Index) {
	t.Helper()
	ra, rb := rows(a), rows(b)
	if len(ra) != len(rb) {
		t.Fatalf("node counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		na, nb := &ra[i], &rb[i]
		if !dewey.Equal(na.ID, nb.ID) || na.Label != nb.Label || na.Cat != nb.Cat ||
			na.ChildCount != nb.ChildCount || na.Subtree != nb.Subtree ||
			na.Parent != nb.Parent || na.HasValue != nb.HasValue || na.Value != nb.Value {
			t.Fatalf("node %d differs: %+v vs %+v", i, na, nb)
		}
	}
	if len(a.Postings) != len(b.Postings) {
		t.Fatalf("posting keys differ: %d vs %d", len(a.Postings), len(b.Postings))
	}
	for k, la := range a.Postings {
		lb := b.Postings[k]
		if len(la) != len(lb) {
			t.Fatalf("postings %q differ in length", k)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("postings %q differ at %d", k, i)
			}
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Labels) != len(b.Labels) || len(a.DocNames) != len(b.DocNames) {
		t.Error("label or doc tables differ")
	}
	// Lookup must work after load (labelIDs rebuilt).
	if la, lb := a.Lookup("karen"), b.Lookup("karen"); len(la) != len(lb) {
		t.Error("lookup differs after round trip")
	}
}

func TestMultiDocBinaryRoundTrip(t *testing.T) {
	var repo xmltree.Repository
	repo.Add(xmltree.BuildFigure2a())
	repo.Add(xmltree.BuildFigure1())
	ix, err := Build(&repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
}
