package gks

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ingestDoc(t *testing.T, name string, words ...string) *Document {
	t.Helper()
	src := "<root>"
	for _, w := range words {
		src += "<item>" + w + "</item>"
	}
	src += "</root>"
	doc, err := ParseDocumentString(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// sameResults asserts two responses rank the same nodes the same way.
func sameResults(t *testing.T, label string, want, got *Response) {
	t.Helper()
	if len(want.Results) != len(got.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if w.ID.String() != g.ID.String() || w.Label != g.Label || w.Rank != g.Rank {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// TestUpsertRemoveLifecycle drives the full add → search → replace →
// search → delete cycle through the generic dispatchers on both physical
// layouts, comparing each state against a cold rebuild from the surviving
// documents.
func TestUpsertRemoveLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(docs ...*Document) (Searcher, error)
	}{
		{"single", func(docs ...*Document) (Searcher, error) { return IndexDocuments(docs...) }},
		{"sharded", func(docs ...*Document) (Searcher, error) { return IndexDocumentsSharded(3, docs...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build(
				ingestDoc(t, "a.xml", "apple", "pear"),
				ingestDoc(t, "b.xml", "pear", "plum"),
			)
			if err != nil {
				t.Fatal(err)
			}

			// Add a new document; its keywords become searchable.
			next, replaced, err := Upsert(sys, ingestDoc(t, "c.xml", "cherry", "pear"))
			if err != nil || replaced {
				t.Fatalf("add: replaced=%v err=%v", replaced, err)
			}
			if resp, err := searchAt(next, "cherry", 1); err != nil || len(resp.Results) == 0 {
				t.Fatalf("added document not searchable: %d results, err=%v",
					len(resp.Results), err)
			}
			// The old system never saw it.
			if resp, _ := searchAt(sys, "cherry", 1); len(resp.Results) != 0 {
				t.Fatal("mutation leaked into the receiver")
			}

			// Replace it; the old content disappears, the new appears.
			next2, replaced, err := Upsert(next, ingestDoc(t, "c.xml", "quince", "mango"))
			if err != nil || !replaced {
				t.Fatalf("replace: replaced=%v err=%v", replaced, err)
			}
			if resp, _ := searchAt(next2, "cherry", 1); len(resp.Results) != 0 {
				t.Fatal("replaced content still searchable")
			}
			if resp, _ := searchAt(next2, "quince", 1); len(resp.Results) == 0 {
				t.Fatal("replacement content not searchable")
			}

			// Delete it; state must equal a cold rebuild of the survivors
			// (the reference rebuild renumbers from zero, and so does a
			// history whose adds all landed past the original tail ids —
			// result IDs and ranks must match exactly).
			next3, err := Remove(next2, "c.xml")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tc.build(
				ingestDoc(t, "a.xml", "apple", "pear"),
				ingestDoc(t, "b.xml", "pear", "plum"),
			)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{"pear", "apple plum", "quince"} {
				want, err1 := searchAt(ref, q, 1)
				got, err2 := searchAt(next3, q, 1)
				if err1 != nil || err2 != nil {
					t.Fatalf("q=%q: err1=%v err2=%v", q, err1, err2)
				}
				sameResults(t, fmt.Sprintf("%s q=%q", tc.name, q), want, got)
			}
			if want, got := ref.Stats(), next3.Stats(); want != got {
				t.Fatalf("stats %+v, want %+v", got, want)
			}

			// Error surface.
			if _, err := Remove(next3, "missing.xml"); !errors.Is(err, ErrDocNotFound) {
				t.Fatalf("remove missing: err = %v, want ErrDocNotFound", err)
			}
			if _, err := Remove(next3, "a.xml"); err != nil {
				t.Fatal(err)
			}
			one, err := Remove(next3, "b.xml")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Remove(one, "a.xml"); !errors.Is(err, ErrLastDocument) {
				t.Fatalf("remove last: err = %v, want ErrLastDocument", err)
			}
		})
	}
}

// A type embedding *System is a Searcher: the shape a tracing or gating
// wrapper has, with every mutation and probe of the system it wraps.
var _ Searcher = struct{ *System }{}

// TestSearcherSurface: the interface stays one query entry point, one
// explain, ten other reads and five writes; a method added to it fails
// here first.
func TestSearcherSurface(t *testing.T) {
	it := reflect.TypeOf((*Searcher)(nil)).Elem()
	if n := it.NumMethod(); n > 17 {
		t.Fatalf("Searcher has %d methods, want at most 17", n)
	}
	var search []string
	for i := 0; i < it.NumMethod(); i++ {
		if name := it.Method(i).Name; strings.Contains(name, "Search") || strings.Contains(name, "Explain") {
			search = append(search, name)
		}
	}
	if !reflect.DeepEqual(search, []string{"Explain", "Search"}) {
		t.Fatalf("search surface %v, want [Explain Search]", search)
	}
}

// searcherHolder lets the mutator publish successors the way a server swap
// does, so readers always load a complete, immutable system.
type searcherHolder struct{ s Searcher }

// TestConcurrentMutationUnderSearch races continuous searches against a
// stream of upserts and deletes (run with -race). Every search must answer
// without error on whatever immutable snapshot it loaded — mutations never
// touch a published system in place.
func TestConcurrentMutationUnderSearch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(docs ...*Document) (Searcher, error)
	}{
		{"single", func(docs ...*Document) (Searcher, error) { return IndexDocuments(docs...) }},
		{"sharded", func(docs ...*Document) (Searcher, error) { return IndexDocumentsSharded(3, docs...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build(
				ingestDoc(t, "base-0.xml", "apple", "pear"),
				ingestDoc(t, "base-1.xml", "pear", "plum"),
				ingestDoc(t, "base-2.xml", "plum", "apple"),
			)
			if err != nil {
				t.Fatal(err)
			}
			var box atomic.Pointer[searcherHolder]
			box.Store(&searcherHolder{s: sys})

			stop := make(chan struct{})
			var searches atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					queries := []string{"apple", "pear plum", "apple pear plum"}
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						cur := box.Load().s
						resp, err := searchAt(cur, queries[i%len(queries)], 1)
						if err != nil {
							t.Errorf("search failed: %v", err)
							return
						}
						// Internal consistency: results are ranked and each
						// carries a resolvable keyword set.
						for j, res := range resp.Results {
							if j > 0 && resp.Results[j-1].Rank < res.Rank {
								t.Errorf("response not rank-sorted at %d", j)
								return
							}
							if len(resp.KeywordsOf(res)) == 0 {
								t.Errorf("result %d has no keywords", j)
								return
							}
						}
						searches.Add(1)
					}
				}()
			}

			for i := 0; i < 40; i++ {
				cur := box.Load().s
				var next Searcher
				var err error
				switch i % 4 {
				case 0, 1: // add / replace
					name := fmt.Sprintf("live-%d.xml", i%8)
					next, _, err = Upsert(cur, ingestDoc(t, name, "apple", fmt.Sprintf("kw%d", i)))
				case 2:
					name := fmt.Sprintf("live-%d.xml", (i-2)%8)
					next, err = Remove(cur, name)
					if errors.Is(err, ErrDocNotFound) {
						continue
					}
				default:
					next, _, err = Upsert(cur, ingestDoc(t, "base-1.xml", "pear", "plum", "quince"))
				}
				if err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
				box.Store(&searcherHolder{s: next})
				// Single-core runners: give readers a turn per generation so
				// searches genuinely interleave with swaps.
				runtime.Gosched()
			}
			// Keep serving until the readers have demonstrably overlapped
			// the mutation stream (bounded, so a wedged reader still fails
			// fast rather than hanging the suite).
			for deadline := time.Now().Add(5 * time.Second); searches.Load() < 20 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			close(stop)
			wg.Wait()
			if searches.Load() == 0 {
				t.Fatal("no searches completed during the mutation storm")
			}
		})
	}
}

// TestDocHolds: the probe the response cache evicts by answers the same on
// every layout — single index, shard set, segment-backed, and a wrapper
// embedding a system — and takes a query's normalized tokens.
func TestDocHolds(t *testing.T) {
	docs := func() []*Document {
		return []*Document{
			ingestDoc(t, "a.xml", "apples", "shared"),
			ingestDoc(t, "b.xml", "banana", "shared"),
			ingestDoc(t, "c.xml", "cherry"),
		}
	}
	single, err := IndexDocuments(docs()...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := IndexDocumentsSharded(3, docs()...)
	if err != nil {
		t.Fatal(err)
	}
	_, segment, _ := segmentPair(t, 1<<20, docs()...)

	token := func(raw string) string { return ParseQuery(raw).Keywords[0].Tokens[0] }
	type wrapper struct{ Searcher }
	for name, sys := range map[string]Searcher{"single": single, "sharded": sharded, "segment": segment, "wrapped": wrapper{single}} {
		for _, tc := range []struct {
			doc, raw string
			want     bool
		}{
			{"a.xml", "Apples", true}, {"a.xml", "shared", true}, {"a.xml", "item", true},
			{"a.xml", "banana", false}, {"b.xml", "banana", true}, {"c.xml", "shared", false},
			{"c.xml", "cherry", true}, {"nope.xml", "shared", false},
		} {
			if got := sys.DocHolds(tc.doc)(token(tc.raw)); got != tc.want {
				t.Errorf("%s: %s holds %q = %v, want %v", name, tc.doc, tc.raw, got, tc.want)
			}
		}
	}
}
