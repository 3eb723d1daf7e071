package index

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
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
	wantRows, gotRows := rows(want), rows(got)
	if len(wantRows) != len(gotRows) {
		t.Fatalf("%s: %d nodes, want %d", label, len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		w, g := &wantRows[i], &gotRows[i]
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
	nodesBefore := ix.NodeCount()
	sharedBefore := len(ix.Lookup("shared"))

	del, err := ix.DeleteDoc("b.xml")
	if err != nil {
		t.Fatal(err)
	}

	// The receiver is untouched — old searchers keep a complete view.
	if ix.NodeCount() != nodesBefore || len(ix.Lookup("shared")) != sharedBefore ||
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
	next, err := AppendAs(del, newDoc, del.NextDocID(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The delta append carries the tombstone forward.
	if !next.Tombstoned() || next.ContainsDoc("a.xml") {
		t.Fatalf("append dropped the tombstone: live docs %v", next.LiveDocs())
	}
	// The appended document takes id 3 (one past the max live id, keeping
	// the node table in Dewey order despite the hole at id 0).
	want := rebuildFrom(t, b, c, wordDoc("n.xml", 3, "nectarine", "shared"))
	if next.Stats != want.Stats {
		t.Fatalf("delete+append: stats %+v, want %+v", next.Stats, want.Stats)
	}
	assertLiveEqual(t, "delete+append", want, next.Compacted())
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
	if _, err := AppendAs(ix, bad, ix.NextDocID(), DefaultOptions()); err == nil {
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
		"binary":   func() (*Index, error) { return Load(&bin) },
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

// nestDoc builds a document whose words sit under a chain of depth nested
// <sec> elements, so its deepest element lies at depth+1.
func nestDoc(name string, depth int, words ...string) *xmltree.Document {
	root := xmltree.E("root")
	leaf := root
	for i := 0; i < depth; i++ {
		sec := xmltree.E("sec")
		leaf.Append(sec)
		leaf = sec
	}
	for _, w := range words {
		leaf.Append(xmltree.ET("item", w))
	}
	return xmltree.NewDocument(name, 0, root)
}

// recomputeLiveStats rebuilds the statistics from the live spans and live
// posting counts: what a cold rebuild from the surviving documents
// reports, and what DeleteDoc keeps incrementally.
func recomputeLiveStats(ix *Index) Stats {
	var st Stats
	for _, sp := range ix.LiveSpans() {
		ix.tallySpan(&st, sp)
	}
	ix.ForEachKeyword(func(_ string, live int) {
		st.DistinctKeywords++
		st.PostingEntries += live
	})
	return st
}

// requireDeleteMatchesRecount holds the statistics and per-keyword dead
// counts DeleteDoc kept incrementally against a full recount:
// recomputeLiveStats over the live spans, and every posting list checked
// ordinal by ordinal against the tombstone mask.
func requireDeleteMatchesRecount(t *testing.T, label string, ix *Index) {
	t.Helper()
	if ref := recomputeLiveStats(ix); ix.Stats != ref {
		t.Fatalf("%s: incremental stats %+v, recomputed %+v", label, ix.Stats, ref)
	}
	if ix.tomb == nil {
		return
	}
	recount := map[string]int32{}
	for kw, list := range ix.Postings {
		for _, ord := range list {
			if !ix.LiveOrd(ord) {
				recount[kw]++
			}
		}
	}
	if !maps.Equal(ix.tomb.deadPosts, recount) {
		t.Fatalf("%s: incremental dead counts %v, recounted %v", label, ix.tomb.deadPosts, recount)
	}
}

// TestDeleteDocDifferential: along random add, replace and delete histories
// over base documents of varying depth, every delete's incremental Stats
// and dead posting counts equal a full recount. Each history opens with
// the cases an incremental count can get wrong: a base (non-appended)
// document, the only document at MaxDepth, and two deletes in a row.
func TestDeleteDocDifferential(t *testing.T) {
	words := []string{"apple", "banana", "cherry", "damson", "elder", "fig", "sec", "item"}
	rng := rand.New(rand.NewSource(7))
	mkdoc := func(name string, depth int) *xmltree.Document {
		ws := make([]string, 1+rng.Intn(4))
		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		return nestDoc(name, depth, ws...)
	}
	mustDelete := func(ix *Index, label, name string) *Index {
		t.Helper()
		out, err := ix.DeleteDoc(name)
		if err != nil {
			t.Fatalf("%s: delete %s: %v", label, name, err)
		}
		requireDeleteMatchesRecount(t, label, out)
		return out
	}
	for trial := 0; trial < 20; trial++ {
		// Five base documents at depths 0-2, one of them instead the only
		// one at depth 4.
		var repo xmltree.Repository
		deepAt := rng.Intn(5)
		deep := fmt.Sprintf("base-%d", deepAt)
		for i := 0; i < 5; i++ {
			depth := rng.Intn(3)
			if i == deepAt {
				depth = 4
			}
			repo.Add(mkdoc(fmt.Sprintf("base-%d", i), depth))
		}
		ix, err := Build(&repo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]bool{}
		for _, d := range repo.Docs {
			live[d.Name] = true
		}
		label := fmt.Sprintf("trial %d", trial)

		// A base document, then the deepest one: MaxDepth must fall.
		victim := fmt.Sprintf("base-%d", (deepAt+1)%5)
		ix = mustDelete(ix, label+" base delete", victim)
		delete(live, victim)
		depth := ix.Stats.MaxDepth
		ix = mustDelete(ix, label+" MaxDepth delete", deep)
		delete(live, deep)
		if ix.Stats.MaxDepth >= depth {
			t.Fatalf("%s: MaxDepth %d after deleting the only document at depth %d", label, ix.Stats.MaxDepth, depth)
		}

		next := 0
		for step := 0; step < 30; step++ {
			names := make([]string, 0, len(live))
			for n := range live {
				names = append(names, n)
			}
			sort.Strings(names)
			label := fmt.Sprintf("trial %d step %d", trial, step)
			switch op := rng.Intn(4); {
			case op == 0 || len(live) <= 2: // append
				name := fmt.Sprintf("add-%d", next)
				next++
				out, err := AppendAs(ix, mkdoc(name, rng.Intn(6)), ix.NextDocID(), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				ix, live[name] = out, true
			case op == 1: // replace: delete, then append under the same name
				name := names[rng.Intn(len(names))]
				del := mustDelete(ix, label+" replace", name)
				out, err := AppendAs(del, mkdoc(name, rng.Intn(6)), del.NextDocID(), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				ix = out
			case op == 2: // delete
				name := names[rng.Intn(len(names))]
				ix = mustDelete(ix, label+" delete", name)
				delete(live, name)
			default: // two deletes in a row
				a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
				if a == b {
					continue
				}
				ix = mustDelete(ix, label+" first of two", a)
				ix = mustDelete(ix, label+" second of two", b)
				delete(live, a)
				delete(live, b)
			}
			requireDeleteMatchesRecount(t, label, ix)
		}
	}
}

// TestDocHolds checks the probe against every index state a serving system
// can be in: plain, tombstoned, duplicate names and lazily backed.
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
	every("plain", ix)
	every("lazy", NewLazy(&Index{
		Labels: ix.Labels, DocNames: ix.DocNames, Stats: ix.Stats, labelIDs: ix.labelIDs, cols: ix.cols,
	}, &memSource{posts: ix.Postings}))

	del, err := ix.DeleteDoc("b.xml")
	if err != nil {
		t.Fatal(err)
	}
	check("tombstoned", del, "b.xml", map[string]bool{"banana": false, "shared": false, "item": false})
	check("tombstoned", del, "a.xml", map[string]bool{"apple": true, "shared": true, "banana": false})
	check("tombstoned", del, "c.xml", map[string]bool{"cherry": true, "shared": false})
}

// failingSource is a PostingSource whose storage is gone.
type failingSource struct{ memSource }

func (failingSource) Postings(string) ([]int32, error) { return nil, errors.New("disk gone") }

// A probe that cannot read a list must answer "may hold" and poison the
// index, never "does not hold".
func TestDocHoldsLazyFetchFailure(t *testing.T) {
	ix := rebuildFrom(t, wordDoc("a.xml", 0, "apple"), wordDoc("b.xml", 1, "banana"))
	lazy := NewLazy(&Index{
		Labels: ix.Labels, DocNames: ix.DocNames, Stats: ix.Stats, labelIDs: ix.labelIDs, cols: ix.cols,
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
