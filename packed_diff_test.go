package gks

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/xmltree"
)

// Differential tests for the packed (DAG-compressed) node table, the only
// one a system serves from. The accessor oracle in internal/index pins
// every accessor against the builder's flat rows; this file pins the whole
// read surface of systems whose packed tables were reached different ways
// — built, reloaded, delta-appended, compacted, repacked — against
// each other and against cold rebuilds, and under concurrent search.

// indexDocs is IndexDocuments for a test: it fails t on error.
func indexDocs(t *testing.T, docs ...*Document) *System {
	t.Helper()
	sys, err := IndexDocuments(docs...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// packedCorpora extends the segment corpora with a duplicate-heavy DBLP
// corpus — shared subtrees are where the shape table actually dedups, so
// the instance-dispatch paths get real coverage.
func packedCorpora(t *testing.T) map[string][]*Document {
	t.Helper()
	c := segmentCorpora(t)
	c["dblp-dup"] = []*Document{datagen.DBLP(datagen.BibConfig{
		Config:      datagen.Config{Seed: 13, Scale: 2},
		DupFraction: 0.6,
	})}
	return c
}

// normExplain strips the wall-clock timings from an explanation; every
// counted quantity (posting sizes, blocks, LCP nodes, candidates,
// survivors) and the embedded response must match exactly.
func normExplain(e *Explanation) Explanation {
	if e == nil {
		return Explanation{}
	}
	c := *e
	c.MergeTime, c.ScanTime, c.RankTime = 0, 0, 0
	c.Stages = core.StageTimings{}
	if c.Response != nil {
		r := normResp(c.Response)
		c.Response = &r
	}
	return c
}

func diffExplain(t *testing.T, a, b *System, query string, s int) {
	t.Helper()
	ea, errA := a.Explain(context.Background(), ParseQuery(query), s)
	eb, errB := b.Explain(context.Background(), ParseQuery(query), s)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("Explain(%q,%d) error mismatch: %v vs %v", query, s, errA, errB)
	}
	if errA != nil {
		if errA.Error() != errB.Error() {
			t.Fatalf("Explain(%q,%d) error text: %v vs %v", query, s, errA, errB)
		}
		return
	}
	if !reflect.DeepEqual(normExplain(ea), normExplain(eb)) {
		t.Fatalf("Explain(%q,%d) differ:\n%+v\n%+v", query, s, normExplain(ea), normExplain(eb))
	}
}

// diffAggregates compares every whole-index summary the System exposes.
func diffAggregates(t *testing.T, a, b *System) {
	t.Helper()
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("Stats differ:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if sa, sb := a.Schema(), b.Schema(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("Schema differ: %v vs %v", sa, sb)
	}
	if ka, kb := a.TopKeywords(10), b.TopKeywords(10); !reflect.DeepEqual(ka, kb) {
		t.Fatalf("TopKeywords differ: %v vs %v", ka, kb)
	}
	if la, lb := a.LabelHistogram(), b.LabelHistogram(); !reflect.DeepEqual(la, lb) {
		t.Fatalf("LabelHistogram differ: %v vs %v", la, lb)
	}
	if da, db := a.DepthHistogram(), b.DepthHistogram(); !reflect.DeepEqual(da, db) {
		t.Fatalf("DepthHistogram differ: %v vs %v", da, db)
	}
	if va, vb := a.ValidateIndex(), b.ValidateIndex(); va != nil || vb != nil {
		t.Fatalf("ValidateIndex: %v, %v", va, vb)
	}
}

// TestPackedDifferentialSearch is the central packed-node-table property
// test: over randomized corpora (including a duplicate-heavy one) and
// seeded random queries, a built system and the same index reloaded from
// its GKS3 snapshot answer the entire read surface — search, top-k, best
// effort, insights, refinements, explain, SLCA, ELCA, schema and every
// histogram — identically, before and after both re-pack their tables
// for schema-level categorization.
func TestPackedDifferentialSearch(t *testing.T) {
	for name, docs := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			built := indexDocs(t, docs...)
			var snap bytes.Buffer
			if err := built.SaveSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadIndex(&snap)
			if err != nil {
				t.Fatal(err)
			}
			diffAggregates(t, built, loaded)

			kws := vocab(built)
			rng := rand.New(rand.NewSource(77))
			for i, query := range randomQueries(rng, kws, 40) {
				s := 1 + rng.Intn(3)
				diffSearchSurface(t, built, loaded, query, s)
				if i%5 == 0 {
					diffExplain(t, built, loaded, query, s)
				}
			}
			for i := 0; i < 5; i++ {
				kw := kws[rng.Intn(len(kws))] + "x"
				if sb, sl := built.Suggest(kw, 2, 3), loaded.Suggest(kw, 2, 3); !reflect.DeepEqual(sb, sl) {
					t.Fatalf("Suggest(%q) differ: built=%v loaded=%v", kw, sb, sl)
				}
			}

			// Schema-driven recategorization re-packs each table in place;
			// the two systems must stay identical after.
			cb, cl := built.ApplySchemaCategorization(), loaded.ApplySchemaCategorization()
			if cb != cl {
				t.Fatalf("ApplySchemaCategorization: built recategorized %d, loaded %d", cb, cl)
			}
			diffAggregates(t, built, loaded)
			for _, query := range randomQueries(rng, kws, 10) {
				diffSearchSurface(t, built, loaded, query, 2)
			}
		})
	}
}

// bagDoc builds a small random document over a fixed vocabulary; repeated
// words across documents make shared shapes and multi-doc postings common.
func bagDoc(name string, rng *rand.Rand, words []string) *Document {
	root := xmltree.E("collection")
	n := 3 + rng.Intn(8)
	for i := 0; i < n; i++ {
		entry := xmltree.E("entry")
		entry.Append(xmltree.ET("title", words[rng.Intn(len(words))]+" "+words[rng.Intn(len(words))]))
		entry.Append(xmltree.ET("year", words[rng.Intn(len(words))]))
		root.Append(entry)
	}
	return xmltree.NewDocument(name, 0, root)
}

// TestPackedMutationHistoryDifferential drives random mutation histories
// (add, replace, delete) against a system and pins that the compacted
// survivor — Compacted() over whatever tombstones and appends accumulated
// — answers the full search surface identically to a cold rebuild from the
// surviving documents.
func TestPackedMutationHistoryDifferential(t *testing.T) {
	words := []string{
		"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
		"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	}
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			var docs []*Document
			var names []string
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("d%d", i)
				docs = append(docs, bagDoc(name, rng, words))
				names = append(names, name)
			}
			sys := indexDocs(t, docs...)
			nextName := len(names)

			for step := 0; step < 30; step++ {
				switch op := rng.Intn(3); op {
				case 0: // add a new document
					name := fmt.Sprintf("d%d", nextName)
					nextName++
					next, replaced, err := Upsert(sys, bagDoc(name, rng, words))
					if err != nil || replaced {
						t.Fatalf("step %d: add %s: replaced=%v err=%v", step, name, replaced, err)
					}
					sys = next.(*System)
					names = append(names, name)
				case 1: // replace an existing document
					name := names[rng.Intn(len(names))]
					next, replaced, err := Upsert(sys, bagDoc(name, rng, words))
					if err != nil || !replaced {
						t.Fatalf("step %d: replace %s: replaced=%v err=%v", step, name, replaced, err)
					}
					sys = next.(*System)
				default: // delete (keep >=2 documents so ErrLastDocument
					// stays out of this history)
					if len(names) <= 2 {
						continue
					}
					i := rng.Intn(len(names))
					next, err := Remove(sys, names[i])
					if err != nil {
						t.Fatalf("step %d: remove %s: %v", step, names[i], err)
					}
					sys = next.(*System)
					names = append(names[:i], names[i+1:]...)
				}
			}

			comp := newSystem(sys.ix.Compacted(), sys.repo)
			// Cold rebuild from the survivors with their document ids
			// preserved (Repository.Add would renumber); Build requires
			// Dewey document order.
			sorted := append([]*Document(nil), sys.repo.Docs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].DocID < sorted[j].DocID })
			coldIx, err := index.Build(&xmltree.Repository{Docs: sorted}, index.DefaultOptions())
			if err != nil {
				t.Fatalf("cold rebuild: %v", err)
			}
			cold := newSystem(coldIx, &xmltree.Repository{Docs: sorted})

			diffAggregates(t, cold, comp)
			kws := vocab(cold)
			for i, query := range randomQueries(rng, kws, 25) {
				s := 1 + rng.Intn(3)
				diffSearchSurface(t, cold, comp, query, s)
				if i%5 == 0 {
					diffExplain(t, cold, comp, query, s)
				}
			}
		})
	}
}

// TestPackedDeltaAppendEquivalence is the differential oracle for the
// column append: a random append/replace/delete history is driven through
// AppendAs and DeleteDoc, and at every checkpoint the result must hold the
// same logical state — statistics, document sets, doc-insensitive results
// — as a cold index.Build of the surviving documents at the document
// numbers their appends recorded. After a final Compacted() the appended
// side's image (node table, postings, names) must be byte-for-byte the
// cold build's. Mid-history the appended side crosses the repack threshold
// and pays its debt via Compacted(), so the equivalence also covers
// resuming appends on a compacted table.
func TestPackedDeltaAppendEquivalence(t *testing.T) {
	words := []string{
		"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
		"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	}
	queries := append(append([]string(nil), words[:8]...), "alpha bravo", "echo kilo lima")
	type survivor struct {
		doc *Document
		id  int32
	}
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(500 + trial)))
			var docs []*Document
			for i := 0; i < 4; i++ {
				docs = append(docs, bagDoc(fmt.Sprintf("d%d", i), rng, words))
			}
			fast := indexDocs(t, docs...).ix
			live := map[string]survivor{}
			for _, d := range docs {
				live[d.Name] = survivor{d, d.DocID}
			}
			names := []string{"d0", "d1", "d2", "d3"}
			nextName := len(names)
			repacked := false

			// cold builds the survivors at their recorded numbers; the
			// tree builder keeps each node's assigned Dewey ID.
			cold := func() *index.Index {
				t.Helper()
				var sorted []*Document
				for _, s := range live {
					s.doc.DocID = s.id
					s.doc.AssignIDs()
					sorted = append(sorted, s.doc)
				}
				sort.Slice(sorted, func(i, j int) bool { return sorted[i].DocID < sorted[j].DocID })
				ix, err := index.Build(&xmltree.Repository{Docs: sorted}, index.DefaultOptions())
				if err != nil {
					t.Fatalf("cold rebuild: %v", err)
				}
				return ix
			}
			appendDoc := func(doc *Document) {
				t.Helper()
				id := fast.NextDocID()
				f, err := index.AppendAs(fast, doc, id, index.DefaultOptions())
				if err != nil {
					t.Fatalf("append %s: %v", doc.Name, err)
				}
				fast = f
				live[doc.Name] = survivor{doc, id}
			}
			deleteDoc := func(name string) {
				t.Helper()
				f, err := fast.DeleteDoc(name)
				if err != nil {
					t.Fatalf("delete %s: %v", name, err)
				}
				fast = f
				delete(live, name)
			}

			for step := 0; step < 24; step++ {
				switch rng.Intn(3) {
				case 0:
					name := fmt.Sprintf("d%d", nextName)
					nextName++
					appendDoc(bagDoc(name, rng, words))
					names = append(names, name)
				case 1:
					name := names[rng.Intn(len(names))]
					deleteDoc(name)
					appendDoc(bagDoc(name, rng, words))
				default:
					if len(names) <= 2 {
						continue
					}
					i := rng.Intn(len(names))
					deleteDoc(names[i])
					names = append(names[:i], names[i+1:]...)
				}
				if err := fast.Validate(); err != nil {
					t.Fatalf("step %d: validate: %v", step, err)
				}
				if debt := fast.PackDebt(); !repacked && debt >= 0.5 {
					before := fast.NodeCount()
					fast = fast.Compacted()
					if fast.NodeCount() >= before {
						t.Fatalf("step %d: Compacted() at debt %.2f reclaimed no row", step, debt)
					}
					if d := fast.PackDebt(); d != 0 {
						t.Fatalf("step %d: debt %.2f survives Compacted()", step, d)
					}
					repacked = true
				}
				if step%6 == 5 {
					assertStateEqual(t, fmt.Sprintf("trial %d step %d", trial, step),
						newSystem(cold(), nil), newSystem(fast, nil), queries)
				}
			}
			if !repacked {
				// Histories are seeded, so the threshold crossing is
				// deterministic; flag a seed change that silently stops
				// covering the repack-resume path.
				t.Error("history never crossed the repack threshold")
			}

			fc, cc := fast.Compacted(), cold()
			if !reflect.DeepEqual(fc.DocNames, cc.DocNames) {
				t.Fatalf("compacted doc names diverge: delta=%v cold=%v", fc.DocNames, cc.DocNames)
			}
			var fb, cb bytes.Buffer
			if err := fc.SaveBinary(&fb); err != nil {
				t.Fatal(err)
			}
			if err := cc.SaveBinary(&cb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb.Bytes(), cb.Bytes()) {
				t.Fatal("compacted delta image diverges from the cold build's")
			}
		})
	}
}

// TestSavesMatchColdBuild pins the encoders to the cold build: along a
// random add/replace/delete history of column appends and tombstones —
// with sibling appends that make the kept branch copy its rows — the GKS3
// snapshot and the GKS4 segment saved from the chained index are byte for
// byte those of a cold index.Build of the survivors at the document
// numbers their appends recorded.
func TestSavesMatchColdBuild(t *testing.T) {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	type survivor struct {
		doc *Document
		id  int32
	}
	images := func(ix *index.Index) (gks3, gks4 []byte) {
		t.Helper()
		var a, b bytes.Buffer
		if err := ix.SaveSnapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := segment.Write(&b, ix, segment.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes()
	}
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(900 + trial)))
			live := map[string]survivor{}
			var docs []*Document
			for i := 0; i < 3; i++ {
				d := bagDoc(fmt.Sprintf("d%d", i), rng, words)
				docs = append(docs, d)
				live[d.Name] = survivor{d, int32(i)}
			}
			ix := indexDocs(t, docs...).ix
			appendDoc := func(doc *Document) {
				t.Helper()
				id := ix.NextDocID()
				next, err := index.AppendAs(ix, doc, id, index.DefaultOptions())
				if err != nil {
					t.Fatalf("append %s: %v", doc.Name, err)
				}
				ix = next
				live[doc.Name] = survivor{doc, id}
			}
			for step := 0; step < 20; step++ {
				names := make([]string, 0, len(live))
				for n := range live {
					names = append(names, n)
				}
				sort.Strings(names)
				switch op := rng.Intn(4); {
				case op == 0 && len(names) > 1: // replace
					name := names[rng.Intn(len(names))]
					del, err := ix.DeleteDoc(name)
					if err != nil {
						t.Fatal(err)
					}
					ix = del
					appendDoc(bagDoc(name, rng, words))
				case op == 1 && len(names) > 1: // delete
					name := names[rng.Intn(len(names))]
					del, err := ix.DeleteDoc(name)
					if err != nil {
						t.Fatal(err)
					}
					ix = del
					delete(live, name)
				case op == 2: // a sibling branch takes the claim first
					if _, err := index.AppendAs(ix, bagDoc("sibling", rng, words), ix.NextDocID(), index.DefaultOptions()); err != nil {
						t.Fatal(err)
					}
					appendDoc(bagDoc(fmt.Sprintf("s%d", step), rng, words))
				default:
					appendDoc(bagDoc(fmt.Sprintf("a%d", step), rng, words))
				}
				if step%5 != 4 {
					continue
				}
				var sorted []*Document
				for _, s := range live {
					s.doc.DocID = s.id
					s.doc.AssignIDs()
					sorted = append(sorted, s.doc)
				}
				sort.Slice(sorted, func(i, j int) bool { return sorted[i].DocID < sorted[j].DocID })
				cold, err := index.Build(&xmltree.Repository{Docs: sorted}, index.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				g3, g4 := images(ix)
				c3, c4 := images(cold)
				if !bytes.Equal(g3, c3) {
					t.Fatalf("step %d: GKS3 snapshot of the chained index differs from the cold build's", step)
				}
				if !bytes.Equal(g4, c4) {
					t.Fatalf("step %d: GKS4 segment of the chained index differs from the cold build's", step)
				}
			}
		})
	}
}

// TestPackedDeltaAppendConcurrentSearch pins the race contract of the
// in-place tail extension: a delta append grows the predecessor's backing
// arrays beyond their published lengths, and concurrent searches on any
// earlier generation must never observe it (run under -race by make
// dag-smoke). Readers hammer a fixed generation while a writer chains
// appends past it; every response must keep matching the oracle captured
// before the writer started.
func TestPackedDeltaAppendConcurrentSearch(t *testing.T) {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	rng := rand.New(rand.NewSource(321))
	var docs []*Document
	for i := 0; i < 6; i++ {
		docs = append(docs, bagDoc(fmt.Sprintf("d%d", i), rng, words))
	}
	packed := indexDocs(t, docs...)

	queries := randomQueries(rng, vocab(packed), 12)
	want := make([]Response, len(queries))
	for i, q := range queries {
		r, err := searchAt(packed, q, 2)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		want[i] = normResp(r)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, q := range queries {
					r, err := searchAt(packed, q, 2)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d: Search(%q): %v", g, q, err)
						return
					}
					if !reflect.DeepEqual(normResp(r), want[i]) {
						errc <- fmt.Errorf("goroutine %d: Search(%q) diverged under concurrent append", g, q)
						return
					}
				}
			}
		}(g)
	}

	// Writer: chain delta appends from the generation the readers hold.
	sys := packed
	for i := 0; i < 12; i++ {
		next, _, err := sys.Upsert(bagDoc(fmt.Sprintf("w%d", i), rng, words))
		if err != nil {
			t.Errorf("writer append %d: %v", i, err)
			break
		}
		sys = next.(*System)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := sys.ValidateIndex(); err != nil {
		t.Fatalf("final generation invalid: %v", err)
	}
}

// TestPackedSearchConcurrent hammers one packed system from many
// goroutines (run under -race by make dag-smoke): packed serving is
// read-only and must be race-free, and every response must still match the
// answer the same system gave before the goroutines started.
func TestPackedSearchConcurrent(t *testing.T) {
	docs := []*Document{
		datagen.DBLP(datagen.BibConfig{
			Config:      datagen.Config{Seed: 21, Scale: 2},
			DupFraction: 0.5,
		}),
		datagen.Mondial(datagen.Config{Seed: 8, Scale: 1}),
	}
	packed := indexDocs(t, docs...)

	kws := vocab(packed)
	rng := rand.New(rand.NewSource(55))
	queries := randomQueries(rng, kws, 24)
	type oracle struct {
		resp Response
		err  string
	}
	want := make([]oracle, len(queries))
	for i, q := range queries {
		r, err := searchAt(packed, q, 2)
		if err != nil {
			want[i] = oracle{err: err.Error()}
			continue
		}
		want[i] = oracle{resp: normResp(r)}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries {
				r, err := searchAt(packed, q, 2)
				switch {
				case err != nil && want[i].err == "":
					errc <- fmt.Errorf("goroutine %d: Search(%q): unexpected error %v", g, q, err)
				case err == nil && want[i].err != "":
					errc <- fmt.Errorf("goroutine %d: Search(%q): missing error %q", g, q, want[i].err)
				case err == nil && !reflect.DeepEqual(normResp(r), want[i].resp):
					errc <- fmt.Errorf("goroutine %d: Search(%q): response diverged", g, q)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
