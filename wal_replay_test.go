package gks

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/wal"
)

// TestUpsertRejectsInvalidDocName: the document-name rules hold below the
// interface. Both implementations reject each bad name with the typed
// error when their Upsert method is called directly, not only through the
// package function, so no caller can create a document that no delete or
// replace could ever address.
func TestUpsertRejectsInvalidDocName(t *testing.T) {
	single, err := IndexDocuments(ingestDoc(t, "a.xml", "apple"))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := IndexDocumentsSharded(2,
		ingestDoc(t, "a.xml", "apple"), ingestDoc(t, "b.xml", "pear"))
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"", "   ", "\t\n", "name\nwith\nnewlines", "nul\x00byte", "cr\rname",
		strings.Repeat("x", 513)}
	for _, sys := range []Searcher{single, sharded} {
		for _, name := range bad {
			doc := ingestDoc(t, "placeholder", "apple")
			doc.Name = name
			if _, _, err := sys.Upsert(doc); !errors.Is(err, ErrInvalidDocName) {
				t.Fatalf("%T.Upsert(%q): err = %v, want ErrInvalidDocName", sys, name, err)
			}
			if _, _, err := Upsert(sys, doc); !errors.Is(err, ErrInvalidDocName) {
				t.Fatalf("Upsert(%T, %q): err = %v, want ErrInvalidDocName", sys, name, err)
			}
		}
		// The boundary cases stay accepted.
		for _, name := range []string{"a", strings.Repeat("x", 512), "spaces inside.xml"} {
			doc := ingestDoc(t, "placeholder", "apple")
			doc.Name = name
			if _, _, err := sys.Upsert(doc); err != nil {
				t.Fatalf("%T.Upsert(%q): unexpected reject: %v", sys, name, err)
			}
		}
	}
}

// docInsensitiveResults renders a query's results as a sorted multiset
// of doc-number-free keys. A WAL replay onto a checkpoint assigns
// different Dewey document numbers than a cold rebuild of the same
// history (replayed documents append past the snapshot's ids), so state
// equality must be judged on everything else: the in-document node path,
// label, rank, and matched keyword set of every result.
func docInsensitiveResults(t *testing.T, sys Searcher, q string) []string {
	t.Helper()
	resp, err := searchAt(sys, q, 1)
	if err != nil {
		t.Fatalf("search %q: %v", q, err)
	}
	keys := make([]string, 0, len(resp.Results))
	for _, r := range resp.Results {
		id := r.ID.String()
		rel := ""
		if i := strings.IndexByte(id, '.'); i >= 0 {
			rel = id[i+1:]
		}
		kws := append([]string(nil), resp.KeywordsOf(r)...)
		sort.Strings(kws)
		keys = append(keys, strings.Join([]string{
			rel, r.Label, strconv.FormatFloat(r.Rank, 'g', 12, 64),
			strconv.Itoa(r.KeywordCount), strings.Join(kws, ","),
		}, "|"))
	}
	sort.Strings(keys)
	return keys
}

// assertStateEqual property-tests that two systems hold the same logical
// state: identical document-name sets, identical index statistics, and
// identical result multisets for every workload query.
func assertStateEqual(t *testing.T, label string, want, got Searcher, queries []string) {
	t.Helper()
	if w, g := want.Stats(), got.Stats(); w != g {
		t.Fatalf("%s: stats %+v, want %+v", label, g, w)
	}
	if ws, ok := want.(*System); ok {
		gs := got.(*System)
		wn := append([]string(nil), ws.DocNames()...)
		gn := append([]string(nil), gs.DocNames()...)
		sort.Strings(wn)
		sort.Strings(gn)
		if strings.Join(wn, "\n") != strings.Join(gn, "\n") {
			t.Fatalf("%s: documents %v, want %v", label, gn, wn)
		}
	}
	for _, q := range queries {
		w := docInsensitiveResults(t, want, q)
		g := docInsensitiveResults(t, got, q)
		if strings.Join(w, "\n") != strings.Join(g, "\n") {
			t.Fatalf("%s: q=%q results diverge:\ngot  %v\nwant %v", label, q, g, w)
		}
	}
}

var walTestVocab = []string{
	"apple", "pear", "plum", "cherry", "quince",
	"mango", "grape", "fig", "date", "olive",
}

// walSegmentFiles lists the segment files in a WAL directory, sorted.
func walSegmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestWALReplayEqualsColdRebuild is the randomized kill-point property
// test of the durability design: random mutation histories with
// checkpoints landing at random points, crashed at a random window —
// mid-append (a torn, unacknowledged record at the tail), mid-checkpoint
// (snapshot written, log untouched), mid-truncate (only some superseded
// segments removed), or cleanly — must always recover, via snapshot load
// plus ReplayWAL, to a state equal to a cold rebuild of exactly the
// acknowledged history.
func TestWALReplayEqualsColdRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6B534B47)) // deterministic trials
	randDoc := func(t *testing.T, name string) (*Document, string) {
		t.Helper()
		var b strings.Builder
		b.WriteString("<root>")
		for i, n := 0, 2+rng.Intn(3); i < n; i++ {
			b.WriteString("<item>" + walTestVocab[rng.Intn(len(walTestVocab))] + "</item>")
		}
		b.WriteString("</root>")
		doc, err := ParseDocumentString(b.String(), name)
		if err != nil {
			t.Fatal(err)
		}
		return doc, b.String()
	}
	queries := append(append([]string(nil), walTestVocab...), "apple pear", "plum cherry quince")

	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			snap := filepath.Join(dir, "snap.gksidx")
			walDir := filepath.Join(dir, "wal")

			// content models the acknowledged state: name -> XML source.
			content := map[string]string{}
			var base []*Document
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("base-%d.xml", i)
				doc, src := randDoc(t, name)
				base = append(base, doc)
				content[name] = src
			}
			var sys Searcher
			sys, err := IndexDocuments(base...)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.(*System).SaveIndexFile(snap); err != nil {
				t.Fatal(err)
			}
			// Tiny segments force rotations, so truncation has real work.
			l, err := wal.Open(walDir, wal.Options{SegmentBytes: 256, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}

			names := append([]string(nil), "base-0.xml", "base-1.xml", "base-2.xml",
				"live-0.xml", "live-1.xml", "live-2.xml", "live-3.xml")
			for step, steps := 0, 8+rng.Intn(12); step < steps; step++ {
				name := names[rng.Intn(len(names))]
				if rng.Intn(3) == 0 {
					next, err := Remove(sys, name)
					if errors.Is(err, ErrDocNotFound) || errors.Is(err, ErrLastDocument) {
						continue // rejected live, so never logged
					}
					if err != nil {
						t.Fatal(err)
					}
					sys = next
					if _, err := l.Enqueue(wal.OpDelete, name, ""); err != nil {
						t.Fatal(err)
					}
					delete(content, name)
				} else {
					doc, src := randDoc(t, name)
					next, _, err := Upsert(sys, doc)
					if err != nil {
						t.Fatal(err)
					}
					sys = next
					if _, err := l.Enqueue(wal.OpUpsert, name, src); err != nil {
						t.Fatal(err)
					}
					content[name] = src
				}
				if rng.Intn(4) == 0 {
					// Checkpoint: persist the serving state atomically, then
					// crash somewhere in the truncate window.
					if err := sys.(*System).SaveIndexFile(snap); err != nil {
						t.Fatal(err)
					}
					lsn := l.LastLSN()
					switch rng.Intn(3) {
					case 0:
						// crash after persist, before any truncation
					case 1:
						// crash mid-truncate: deletions go oldest-first, so a
						// partial pass equals truncating through a smaller lsn
						if _, err := l.TruncateThrough(rng.Uint64() % (lsn + 1)); err != nil {
							t.Fatal(err)
						}
					default:
						if _, err := l.TruncateThrough(lsn); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			// Final crash: half the trials die mid-append, with a record
			// partially on disk that was never acknowledged.
			if rng.Intn(2) == 0 {
				sizes := map[string]int64{}
				for _, n := range walSegmentFiles(t, walDir) {
					fi, err := os.Stat(filepath.Join(walDir, n))
					if err != nil {
						t.Fatal(err)
					}
					sizes[n] = fi.Size()
				}
				doc, src := randDoc(t, "torn.xml")
				_ = doc
				if _, err := l.Enqueue(wal.OpUpsert, "torn.xml", src); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				for _, n := range walSegmentFiles(t, walDir) {
					path := filepath.Join(walDir, n)
					fi, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					old, existed := sizes[n]
					if existed && fi.Size() == old {
						continue
					}
					if !existed {
						old = 0 // record opened a fresh segment: cut anywhere in it
					}
					cut := old + rng.Int63n(fi.Size()-old)
					if err := os.Truncate(path, cut); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery: reopen the log, load the snapshot, replay the tail.
			l2, err := wal.Open(walDir, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadIndexFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			recovered, _, err := ReplayWAL(loaded, l2)
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}

			// Cold rebuild of the acknowledged history.
			survivors := make([]string, 0, len(content))
			for name := range content {
				survivors = append(survivors, name)
			}
			sort.Strings(survivors)
			docs := make([]*Document, 0, len(survivors))
			for _, name := range survivors {
				doc, err := ParseDocumentString(content[name], name)
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, doc)
			}
			ref, err := IndexDocuments(docs...)
			if err != nil {
				t.Fatal(err)
			}
			assertStateEqual(t, fmt.Sprintf("trial %d", trial), ref, recovered, queries)
			// The live (never-crashed) system agrees too.
			assertStateEqual(t, fmt.Sprintf("trial %d live", trial), ref, sys, queries)
		})
	}
}

// TestWALReplayPacksOnce is the regression test for the boot-time write
// collapse: replaying a K-record WAL tail must not unpack and re-pack the
// whole node table once per upsert (O(N·K) boot cost). Each upsert is a
// delta append; the one that replaces the base's highest-numbered
// document takes that document's tombstoned number and packs the live
// rows once. Replay must re-pack at most once regardless of K, and still
// recover exactly the cold-rebuild state.
func TestWALReplayPacksOnce(t *testing.T) {
	type record struct {
		op   wal.Op
		name string
		body string
	}
	tails := []struct {
		name    string
		history []record
	}{
		// Fresh names, replacements (including of the same name twice,
		// exercising last-writer-wins) and deletes.
		{"mixed", []record{
			{wal.OpUpsert, "d.xml", "<root><item>cherry</item></root>"},
			{wal.OpUpsert, "b.xml", "<root><item>quince</item></root>"},
			{wal.OpUpsert, "e.xml", "<root><item>mango</item></root>"},
			{wal.OpDelete, "a.xml", ""},
			{wal.OpUpsert, "b.xml", "<root><item>olive</item><item>date</item></root>"},
			{wal.OpUpsert, "f.xml", "<root><item>grape</item></root>"},
			{wal.OpDelete, "e.xml", ""},
			{wal.OpUpsert, "g.xml", "<root><item>fig</item><item>apple</item></root>"},
			{wal.OpUpsert, "c.xml", "<root><item>pear</item></root>"},
			{wal.OpUpsert, "h.xml", "<root><item>plum</item></root>"},
			{wal.OpDelete, "d.xml", ""},
			{wal.OpUpsert, "i.xml", "<root><item>cherry</item><item>quince</item></root>"},
		}},
		// The first collapsed upsert replaces c.xml, the base's
		// highest-numbered document, so its successor's number collides
		// with a tombstone; every later replacement of the top document
		// names one the collapsed tail has already used.
		{"replace-top", []record{
			{wal.OpUpsert, "c.xml", "<root><item>mango</item></root>"},
			{wal.OpUpsert, "d.xml", "<root><item>cherry</item></root>"},
			{wal.OpUpsert, "c.xml", "<root><item>grape</item><item>fig</item></root>"},
			{wal.OpUpsert, "b.xml", "<root><item>quince</item></root>"},
			{wal.OpDelete, "a.xml", ""},
			{wal.OpUpsert, "d.xml", "<root><item>olive</item></root>"},
			{wal.OpUpsert, "e.xml", "<root><item>date</item></root>"},
			{wal.OpDelete, "e.xml", ""},
		}},
	}
	for _, tail := range tails {
		t.Run(tail.name, func(t *testing.T) {
			dir := t.TempDir()
			sys, err := IndexDocuments(
				ingestDoc(t, "a.xml", "apple", "pear"),
				ingestDoc(t, "b.xml", "pear", "plum"),
				ingestDoc(t, "c.xml", "plum", "fig"),
			)
			if err != nil {
				t.Fatal(err)
			}
			l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			content := map[string]string{
				"a.xml": "<root><item>apple</item><item>pear</item></root>",
				"b.xml": "<root><item>pear</item><item>plum</item></root>",
				"c.xml": "<root><item>plum</item><item>fig</item></root>",
			}
			for _, h := range tail.history {
				if _, err := l.Enqueue(h.op, h.name, h.body); err != nil {
					t.Fatal(err)
				}
				if h.op == wal.OpUpsert {
					content[h.name] = h.body
				} else {
					delete(content, h.name)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			before := index.PackCount()
			recovered, applied, err := ReplayWAL(sys, l2)
			if err != nil {
				t.Fatal(err)
			}
			if packs := index.PackCount() - before; packs > 1 {
				t.Errorf("replay of %d records ran packNodes %d times, want at most 1", len(tail.history), packs)
			}
			if applied == 0 {
				t.Fatal("replay applied nothing")
			}
			rs := recovered.(*System)
			if err := rs.ValidateIndex(); err != nil {
				t.Fatal(err)
			}

			names := make([]string, 0, len(content))
			for name := range content {
				names = append(names, name)
			}
			sort.Strings(names)
			docs := make([]*Document, 0, len(names))
			for _, name := range names {
				doc, err := ParseDocumentString(content[name], name)
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, doc)
			}
			ref, err := IndexDocuments(docs...)
			if err != nil {
				t.Fatal(err)
			}
			queries := append(append([]string(nil), walTestVocab...), "apple pear", "plum cherry quince")
			assertStateEqual(t, "replay", ref, recovered, queries)
		})
	}
}

// TestWALReplayShardedSmoke checks the replay path against the sharded
// layout: the log is layout-agnostic, so a snapshot+WAL recovery of a
// shard set must equal a cold sharded rebuild of the same history.
func TestWALReplayShardedSmoke(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "set.gksm")
	set, err := IndexDocumentsSharded(3,
		ingestDoc(t, "a.xml", "apple", "pear"),
		ingestDoc(t, "b.xml", "pear", "plum"),
		ingestDoc(t, "c.xml", "plum", "fig"))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.SaveManifest(manifest); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var sys Searcher = set
	history := []struct {
		op   wal.Op
		name string
		body string
	}{
		{wal.OpUpsert, "d.xml", "<root><item>cherry</item><item>apple</item></root>"},
		{wal.OpUpsert, "b.xml", "<root><item>quince</item></root>"},
		{wal.OpDelete, "a.xml", ""},
		{wal.OpUpsert, "e.xml", "<root><item>mango</item><item>plum</item></root>"},
		{wal.OpDelete, "d.xml", ""},
	}
	for _, h := range history {
		if h.op == wal.OpUpsert {
			doc, err := ParseDocumentString(h.body, h.name)
			if err != nil {
				t.Fatal(err)
			}
			if sys, _, err = Upsert(sys, doc); err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			if sys, err = Remove(sys, h.name); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Enqueue(h.op, h.name, h.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	loaded, err := LoadShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	recovered, applied, err := ReplayWAL(loaded, l2)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("replay applied nothing")
	}
	ref, err := IndexDocumentsSharded(3,
		ingestDoc(t, "b.xml", "quince"),
		ingestDoc(t, "c.xml", "plum", "fig"),
		ingestDoc(t, "e.xml", "mango", "plum"))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"apple", "pear", "plum", "quince", "mango", "cherry", "plum fig"}
	assertStateEqual(t, "sharded", ref, recovered, queries)
	assertStateEqual(t, "sharded live", ref, sys, queries)
}

// TestWALReplayEmptyTailKeepsSegmentLazy: a gksd booted from a GKS4 segment
// with the default (empty) WAL used to materialize the index before the
// empty tail was noticed, so boot read every posting list,
// abandoned the block cache for good and served a fresh System that had
// dropped the segment handle. An empty tail must hand back the system it
// was given, untouched.
func TestWALReplayEmptyTailKeepsSegmentLazy(t *testing.T) {
	dir := t.TempDir()
	eager, err := IndexDocuments(
		ingestDoc(t, "a.xml", "apple", "pear"),
		ingestDoc(t, "b.xml", "pear", "plum"),
	)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "corpus.gks4")
	if err := eager.SaveSegmentFile(path); err != nil {
		t.Fatal(err)
	}
	var fetched blockFetchCounter
	sys, err := LoadIndexFileOpts(path, SegmentOptions{Metrics: &fetched})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.CloseIndex()
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	got, applied, err := ReplayWAL(sys, l)
	if err != nil {
		t.Fatal(err)
	}
	if got != Searcher(sys) || applied != 0 {
		t.Fatalf("ReplayWAL over an empty log returned %p with %d applied, want the input system %p and 0", got, applied, sys)
	}
	if !sys.ix.IsLazy() || sys.Segment() == nil {
		t.Fatal("the segment-backed system is no longer lazy after an empty replay")
	}
	if n := fetched.lookups.Load(); n != 0 {
		t.Fatalf("an empty replay looked up %d posting block(s), want 0", n)
	}
}
