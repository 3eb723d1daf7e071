package index

import (
	"testing"

	"repro/internal/xmltree"
)

func TestAppendEqualsBatchBuild(t *testing.T) {
	mk := func(n int) []*xmltree.Document {
		docs := make([]*xmltree.Document, n)
		for i := range docs {
			docs[i] = xmltree.BuildFigure2a()
		}
		return docs
	}

	// Batch: all three at once.
	var batchRepo xmltree.Repository
	for _, d := range mk(3) {
		batchRepo.Add(d)
	}
	batch, err := Build(&batchRepo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Incremental: one, then append two.
	docs := mk(3)
	var repo xmltree.Repository
	repo.Add(docs[0])
	ix, err := Build(&repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[1:] {
		ix, err = Append(ix, d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
	}
	assertIndexesEqual(t, batch, ix)
}

func TestAppendImmutability(t *testing.T) {
	var repo xmltree.Repository
	repo.Add(xmltree.BuildFigure2a())
	ix, err := Build(&repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nodesBefore := ix.NodeCount()
	karenBefore := len(ix.Lookup("karen"))
	ix2, err := Append(ix, xmltree.BuildFigure2a(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.NodeCount() != nodesBefore || len(ix.Lookup("karen")) != karenBefore {
		t.Error("Append mutated the original index")
	}
	if ix2.NodeCount() != 2*nodesBefore {
		t.Errorf("appended index has %d nodes, want %d", ix2.NodeCount(), 2*nodesBefore)
	}
	if ix2.Stats.Documents != 2 {
		t.Errorf("documents = %d", ix2.Stats.Documents)
	}
}

func TestAppendErrors(t *testing.T) {
	if _, err := Append(nil, xmltree.BuildFigure2a(), DefaultOptions()); err == nil {
		t.Error("nil index must fail")
	}
	var repo xmltree.Repository
	repo.Add(xmltree.BuildFigure2a())
	ix, err := Build(&repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Append(ix, nil, DefaultOptions()); err == nil {
		t.Error("nil document must fail")
	}
	if _, err := Append(ix, &xmltree.Document{Name: "empty"}, DefaultOptions()); err == nil {
		t.Error("rootless document must fail")
	}
}
