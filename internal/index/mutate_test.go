package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dewey"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// wordDoc builds a small document holding the given words as text nodes,
// with an explicit (preserved) document id.
func wordDoc(name string, docID int32, words ...string) *xmltree.Document {
	root := xmltree.E("root")
	for _, w := range words {
		root.Append(xmltree.ET("item", w))
	}
	return xmltree.NewDocument(name, docID, root)
}

// rebuildFrom builds the cold-rebuild reference: one index over the given
// documents with their DocIDs preserved exactly (Repository.Add would
// renumber, which is why the Repository is constructed directly).
func rebuildFrom(t *testing.T, docs ...*xmltree.Document) *Index {
	t.Helper()
	ix, err := Build(&xmltree.Repository{Docs: docs}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// assertLiveEqual asserts two indexes are semantically identical: same
// nodes (labels compared as strings — a compacted index may retain interned
// labels only dead documents used), same postings, same stats, same
// document names.
func assertLiveEqual(t *testing.T, label string, want, got *Index) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		w, g := &want.Nodes[i], &got.Nodes[i]
		if !dewey.Equal(w.ID, g.ID) || want.Labels[w.Label] != got.Labels[g.Label] ||
			w.Cat != g.Cat || w.ChildCount != g.ChildCount || w.Subtree != g.Subtree ||
			w.Parent != g.Parent || w.HasValue != g.HasValue || w.Value != g.Value {
			t.Fatalf("%s: node %d differs:\n  want %+v (label %q)\n  got  %+v (label %q)",
				label, i, w, want.Labels[w.Label], g, got.Labels[g.Label])
		}
	}
	if len(want.Postings) != len(got.Postings) {
		t.Fatalf("%s: %d posting keys, want %d", label, len(got.Postings), len(want.Postings))
	}
	for k, lw := range want.Postings {
		lg, ok := got.Postings[k]
		if !ok || len(lw) != len(lg) {
			t.Fatalf("%s: postings %q = %v, want %v", label, k, lg, lw)
		}
		for i := range lw {
			if lw[i] != lg[i] {
				t.Fatalf("%s: postings %q = %v, want %v", label, k, lg, lw)
			}
		}
	}
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if len(want.DocNames) != len(got.DocNames) {
		t.Fatalf("%s: doc names %v, want %v", label, got.DocNames, want.DocNames)
	}
	for i := range want.DocNames {
		if want.DocNames[i] != got.DocNames[i] {
			t.Fatalf("%s: doc names %v, want %v", label, got.DocNames, want.DocNames)
		}
	}
}

func TestDeleteDocTombstoneSemantics(t *testing.T) {
	a := wordDoc("a.xml", 0, "apple", "shared")
	b := wordDoc("b.xml", 1, "banana", "shared")
	c := wordDoc("c.xml", 2, "cherry", "shared")
	ix := rebuildFrom(t, a, b, c)
	nodesBefore := len(ix.Nodes)
	sharedBefore := len(ix.Lookup("shared"))

	del, err := ix.DeleteDoc("b.xml")
	if err != nil {
		t.Fatal(err)
	}

	// The receiver is untouched — old searchers keep a complete view.
	if len(ix.Nodes) != nodesBefore || len(ix.Lookup("shared")) != sharedBefore ||
		!ix.ContainsDoc("b.xml") || ix.Tombstoned() {
		t.Fatal("DeleteDoc mutated the receiver")
	}

	// The successor masks the dead document everywhere a reader looks.
	if !del.Tombstoned() {
		t.Fatal("successor is not tombstoned")
	}
	if del.ContainsDoc("b.xml") || !del.ContainsDoc("a.xml") || !del.ContainsDoc("c.xml") {
		t.Fatalf("live docs = %v", del.LiveDocs())
	}
	if got := del.Lookup("banana"); len(got) != 0 {
		t.Fatalf("dead document's keyword still visible: %v", got)
	}
	if got := len(del.Lookup("shared")); got != sharedBefore-1 {
		t.Fatalf("shared keyword has %d postings, want %d", got, sharedBefore-1)
	}
	if del.LiveDocCount() != 2 {
		t.Fatalf("live doc count = %d", del.LiveDocCount())
	}
	// Stats reflect only the survivors, exactly as a cold rebuild reports.
	if want := rebuildFrom(t, a, c).Stats; del.Stats != want {
		t.Fatalf("live stats %+v, want %+v", del.Stats, want)
	}
	// The dead document's id is free again: b held id 1, the max live id is
	// 2, so the next append takes 3 (ids stay in node-table order).
	if got := del.NextDocID(); got != 3 {
		t.Fatalf("NextDocID = %d, want 3", got)
	}

	// Deleting the highest live document hands its id back.
	del2, err := del.DeleteDoc("c.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got := del2.NextDocID(); got != 1 {
		t.Fatalf("NextDocID after deleting the tail = %d, want 1", got)
	}
}

func TestDeleteDocErrors(t *testing.T) {
	ix := rebuildFrom(t, wordDoc("only.xml", 0, "apple"))
	if _, err := ix.DeleteDoc("missing.xml"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown name: err = %v, want ErrNotFound", err)
	}
	if _, err := ix.DeleteDoc("only.xml"); !errors.Is(err, ErrLastDocument) {
		t.Fatalf("deleting the last document: err = %v, want ErrLastDocument", err)
	}
}

func TestCompactedEqualsRebuild(t *testing.T) {
	a := wordDoc("a.xml", 0, "apple", "shared")
	b := wordDoc("b.xml", 1, "banana", "shared", "banana")
	c := wordDoc("c.xml", 2, "cherry")
	d := wordDoc("d.xml", 3, "damson", "shared")
	ix := rebuildFrom(t, a, b, c, d)

	del, err := ix.DeleteDoc("b.xml")
	if err != nil {
		t.Fatal(err)
	}
	del, err = del.DeleteDoc("d.xml")
	if err != nil {
		t.Fatal(err)
	}
	compact := del.Compacted()
	if compact.Tombstoned() {
		t.Fatal("Compacted returned a tombstoned index")
	}
	// Survivors keep their original (now sparse) Dewey document numbers.
	assertLiveEqual(t, "compacted", rebuildFrom(t, a, c), compact)
	// Compacting a clean index is the identity.
	if compact.Compacted() != compact {
		t.Fatal("Compacted on a clean index did not return the receiver")
	}
}

func TestDeleteThenAppendEqualsRebuild(t *testing.T) {
	a := wordDoc("a.xml", 0, "apple")
	b := wordDoc("b.xml", 1, "banana")
	c := wordDoc("c.xml", 2, "cherry")
	ix := rebuildFrom(t, a, b, c)

	del, err := ix.DeleteDoc("a.xml")
	if err != nil {
		t.Fatal(err)
	}
	newDoc := wordDoc("n.xml", 0, "nectarine", "shared")
	next, err := Append(del, newDoc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if next.Tombstoned() {
		t.Fatal("append did not compact the tombstones away")
	}
	// The appended document takes id 3 (one past the max live id, keeping
	// the node table in Dewey order despite the hole at id 0).
	want := rebuildFrom(t, b, c, wordDoc("n.xml", 3, "nectarine", "shared"))
	assertLiveEqual(t, "delete+append", want, next)
}

// TestAppendFailureLeavesDocumentUntouched is the regression test for the
// Append mutation bug: it used to renumber the caller's document (DocID and
// every Dewey ID) before validating it, so a failed append corrupted the
// document the caller still holds.
func TestAppendFailureLeavesDocumentUntouched(t *testing.T) {
	ix := rebuildFrom(t, wordDoc("a.xml", 0, "apple"))
	bad := &xmltree.Document{Name: "bad.xml", DocID: 7, Root: xmltree.T("loose text")}
	bad.AssignIDs()
	wantRoot := bad.Root.ID
	if _, err := Append(ix, bad, DefaultOptions()); err == nil {
		t.Fatal("append of a non-element root must fail")
	}
	if bad.DocID != 7 || !dewey.Equal(bad.Root.ID, wantRoot) {
		t.Fatalf("failed append mutated the caller's document: DocID=%d root=%s",
			bad.DocID, bad.Root.ID)
	}
}

// TestSaveCompactsTombstones: tombstones are a serving-time mask, never a
// persisted structure — every save path writes the compacted form, so a
// snapshot loaded after a crash equals the state the mutations reached.
func TestSaveCompactsTombstones(t *testing.T) {
	a := wordDoc("a.xml", 0, "apple")
	b := wordDoc("b.xml", 1, "banana")
	c := wordDoc("c.xml", 2, "cherry")
	ix := rebuildFrom(t, a, b, c)
	del, err := ix.DeleteDoc("b.xml")
	if err != nil {
		t.Fatal(err)
	}
	want := del.Compacted()

	var bin, snap bytes.Buffer
	if err := del.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := del.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*Index, error){
		"binary":   func() (*Index, error) { return LoadBinary(&bin) },
		"snapshot": func() (*Index, error) { return Load(&snap) },
	} {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Tombstoned() {
			t.Fatalf("%s: loaded index is tombstoned", name)
		}
		assertLiveEqual(t, name, want, got)
	}
}

// TestRandomMutationsEqualRebuild drives a random interleaving of appends,
// replaces (delete+append, as System.Upsert performs them) and
// deletes, checking after every step that the compacted live index is
// semantically identical to a cold rebuild from the surviving documents
// with their document ids preserved.
func TestRandomMutationsEqualRebuild(t *testing.T) {
	words := []string{"apple", "banana", "cherry", "damson", "elder", "fig"}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		mkdoc := func(name string, docID int32) *xmltree.Document {
			ws := make([]string, 1+rng.Intn(4))
			for i := range ws {
				ws[i] = words[rng.Intn(len(words))]
			}
			return wordDoc(name, docID, ws...)
		}
		seed := mkdoc("doc-0", 0)
		ix := rebuildFrom(t, seed)
		live := map[string]*xmltree.Document{"doc-0": seed} // survivors, by name
		next := 1

		for step := 0; step < 30; step++ {
			names := make([]string, 0, len(live))
			for n := range live {
				names = append(names, n)
			}
			switch op := rng.Intn(3); {
			case op == 0 || len(live) == 1: // append a new document
				name := fmt.Sprintf("doc-%d", next)
				next++
				doc := mkdoc(name, 0)
				out, err := AppendAs(ix, doc, ix.NextDocID(), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				ix, live[name] = out, doc
			case op == 1: // replace an existing document
				name := names[rng.Intn(len(names))]
				doc := mkdoc(name, 0)
				del, err := ix.DeleteDoc(name)
				if errors.Is(err, ErrLastDocument) {
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				out, err := AppendAs(del, doc, del.NextDocID(), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				ix, live[name] = out, doc
			default: // delete
				name := names[rng.Intn(len(names))]
				out, err := ix.DeleteDoc(name)
				if err != nil {
					t.Fatal(err)
				}
				ix = out
				delete(live, name)
			}

			// Cold rebuild from survivors in document-id order.
			docs := make([]*xmltree.Document, 0, len(live))
			for _, d := range live {
				docs = append(docs, d)
			}
			for i := 0; i < len(docs); i++ {
				for j := i + 1; j < len(docs); j++ {
					if docs[j].DocID < docs[i].DocID {
						docs[i], docs[j] = docs[j], docs[i]
					}
				}
			}
			label := fmt.Sprintf("trial %d step %d (%d live)", trial, step, len(live))
			assertLiveEqual(t, label, rebuildFrom(t, docs...), ix.Compacted())
			if err := ix.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// TestDocHolds checks the probe against every index state a serving system
// can be in: plain, tombstoned, duplicate names, packed and lazily backed.
func TestDocHolds(t *testing.T) {
	a := wordDoc("a.xml", 0, "apple", "shared")
	b := wordDoc("b.xml", 1, "banana", "shared")
	b2 := wordDoc("b.xml", 2, "blueberry")
	c := wordDoc("c.xml", 3, "cherry")
	ix := rebuildFrom(t, a, b, b2, c)

	check := func(label string, ix *Index, name string, want map[string]bool) {
		t.Helper()
		holds := ix.DocHolds(name)
		for tok, w := range want {
			if got := holds(textproc.NormalizeKeyword(tok)); got != w {
				t.Errorf("%s: %s holds %q = %v, want %v", label, name, tok, got, w)
			}
		}
	}
	every := func(label string, ix *Index) {
		t.Helper()
		check(label, ix, "a.xml", map[string]bool{"apple": true, "shared": true, "item": true, "root": true, "banana": false, "cherry": false, "absent": false})
		// Two live documents share the name: the probe covers both spans.
		check(label, ix, "b.xml", map[string]bool{"banana": true, "blueberry": true, "shared": true, "apple": false, "cherry": false})
		check(label, ix, "c.xml", map[string]bool{"cherry": true, "item": true, "shared": false, "blueberry": false})
		check(label, ix, "nope.xml", map[string]bool{"apple": false, "item": false})
	}
	every("flat", ix)
	every("packed", ix.Pack())
	every("lazy", NewLazy(&Index{
		Labels: ix.Labels, Nodes: ix.Nodes, DocNames: ix.DocNames, Stats: ix.Stats, labelIDs: ix.labelIDs,
	}, &memSource{posts: ix.Postings}))

	for label, base := range map[string]*Index{"tombstoned": ix, "tombstoned packed": ix.Pack()} {
		del, err := base.DeleteDoc("b.xml")
		if err != nil {
			t.Fatal(err)
		}
		check(label, del, "b.xml", map[string]bool{"banana": false, "shared": false, "item": false})
		check(label, del, "a.xml", map[string]bool{"apple": true, "shared": true, "banana": false})
		check(label, del, "c.xml", map[string]bool{"cherry": true, "shared": false})
	}
}

// failingSource is a PostingSource whose storage is gone.
type failingSource struct{ memSource }

func (failingSource) Postings(string) ([]int32, error) { return nil, errors.New("disk gone") }

// A probe that cannot read a list must answer "may hold" and poison the
// index, never "does not hold".
func TestDocHoldsLazyFetchFailure(t *testing.T) {
	ix := rebuildFrom(t, wordDoc("a.xml", 0, "apple"), wordDoc("b.xml", 1, "banana"))
	lazy := NewLazy(&Index{
		Labels: ix.Labels, Nodes: ix.Nodes, DocNames: ix.DocNames, Stats: ix.Stats, labelIDs: ix.labelIDs,
	}, &failingSource{})
	if !lazy.DocHolds("a.xml")("banana") {
		t.Error("an unreadable list was reported as not held")
	}
	if lazy.LazyErr() == nil {
		t.Error("the failed fetch did not poison the index")
	}
	if lazy.DocHolds("nope.xml")("banana") {
		t.Error("a document that is not live holds nothing, readable or not")
	}
}
