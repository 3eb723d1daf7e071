package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gks "repro"
	"repro/internal/wal"
)

// The differential corpus: documents that are never mutated hold the
// "fixed" vocabulary, the mutated ones draw from diffWords, diffLabels and
// the phrase "alpha beta"; "zebra" and "unicorn" are in no document until a
// mutation brings them in, so negative answers are cached first.
var (
	diffWords  = []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "zebra", "unicorn", "alpha beta", "beta alpha", "Karen", "paper"}
	diffLabels = []string{"item", "paper", "note", "Student"}
)

func diffFixedDocs() []*gks.Document {
	return []*gks.Document{
		gks.BuildDocument("uni.xml", gks.E("Dept",
			gks.ET("Dept_Name", "CS"),
			gks.E("Course", gks.ET("Name", "Data Mining"),
				gks.E("Students", gks.ET("Student", "Karen"), gks.ET("Student", "Mike"))),
			gks.E("Course", gks.ET("Name", "Algorithms"),
				gks.E("Students", gks.ET("Student", "Karen"), gks.ET("Student", "Julie"))),
		)),
		gks.BuildDocument("lib.xml", gks.E("library",
			gks.E("book", gks.ET("title", "Data on the Web"), gks.ET("author", "Serge Abiteboul")),
			gks.E("book", gks.ET("title", "Mining the Web"), gks.ET("author", "Soumen Chakrabarti")),
		)),
	}
}

// diffQueries is the query population: tokens of the fixed documents only,
// tokens of the mutated ones, mixes, absent tokens, element names, a quoted
// phrase, best-effort s=0 and a truncated top — and /insights and /refine
// views, of queries /search also asks (one entry, several views) and of
// queries only they ask.
func diffQueries() []string {
	qs := []string{
		"/search?q=karen&s=1", "/search?q=karen+mike&s=2", "/search?q=data+web&s=2",
		"/search?q=%22data+mining%22&s=1", "/search?q=author+abiteboul&s=0", "/search?q=julie+algorithms&s=0",
		"/search?q=zebra&s=1", "/search?q=unicorn+karen&s=1", "/search?q=unicorn+zebra&s=0",
		"/search?q=item&s=1", "/search?q=paper&s=1", "/search?q=note+w1&s=2", "/search?q=student&s=1&top=2",
		"/search?q=%22alpha+beta%22&s=1", "/search?q=%22alpha+beta%22+w2&s=0", "/search?q=alpha&s=1",
		"/search?q=karen+w3&s=1", "/search?q=w0+w1+w2+w3&s=0", "/search?q=w4+w5&s=2", "/search?q=w6+mining&s=1",
	}
	for i := 0; i < 8; i++ {
		qs = append(qs, fmt.Sprintf("/search?q=w%d&s=1", i))
	}
	return append(qs,
		"/insights?q=karen&s=1", "/insights?q=karen&s=1&m=1", "/insights?q=student&s=1&m=50", "/insights?q=paper&s=1",
		"/insights?q=w0+w1+w2+w3&s=0", "/insights?q=item+w2&s=1&m=3", "/insights?q=%22alpha+beta%22&s=1", "/insights?q=zebra&s=1",
		"/refine?q=karen+mike&s=2", "/refine?q=w0+w1+w2+w3&s=0", "/refine?q=karen+w3&s=1&top=1", "/refine?q=note+w1+zebra&s=1",
		"/refine?q=unicorn+karen&s=1", "/refine?q=student+paper+w5&s=1&top=2",
	)
}

func diffDoc(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		label := diffLabels[rng.Intn(len(diffLabels))]
		fmt.Fprintf(&sb, "<%s>%s %s</%s>", label,
			diffWords[rng.Intn(len(diffWords))], diffWords[rng.Intn(len(diffWords))], label)
	}
	sb.WriteString("</root>")
	return sb.String()
}

// TestCacheDifferential drives the same random add / replace / delete
// history through the real Ingester of a cached handler (capacity below the
// number of distinct queries, so the LRU evicts too) and of an uncached one,
// and after every step requires every body of the population — /search,
// /insights and /refine — to be byte-identical: the cache may only ever
// serve the served system's answer. A query over the fixed documents asked right before and right
// after each mutation must hit: a mutation evicts only what it can change.
func TestCacheDifferential(t *testing.T) {
	builds := map[string]func(t *testing.T) gks.Searcher{
		"system": func(t *testing.T) gks.Searcher {
			sys, err := gks.IndexDocuments(diffFixedDocs()...)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
		"sharded": func(t *testing.T) gks.Searcher {
			set, err := gks.IndexDocumentsSharded(3, diffFixedDocs()...)
			if err != nil {
				t.Fatal(err)
			}
			return set
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			queries := diffQueries()
			cached := NewWithCache(build(t), len(queries)/2)
			plain := New(build(t))
			stacks := []http.Handler{
				NewIngester(NewReloader(cached, nil, nil, nil), nil, nil, nil).Handler(),
				NewIngester(NewReloader(plain, nil, nil, nil), nil, nil, nil).Handler(),
			}
			mutate := func(method, path, body string) {
				t.Helper()
				for _, st := range stacks {
					if code, resp := adminReq(t, st, method, path, body); code != 200 {
						t.Fatalf("%s %s: status %d: %s", method, path, code, resp)
					}
				}
			}
			const hot = "/search?q=mike+julie&s=1" // tokens of the fixed documents only
			rng := rand.New(rand.NewSource(20))
			var live []string
			for step := 0; step < 240; step++ {
				get(t, cached, hot)
				hitsBefore, _ := cached.CacheStats()
				switch op := rng.Intn(10); {
				case op < 2 && len(live) > 0: // delete
					i := rng.Intn(len(live))
					mutate("DELETE", "/admin/docs/"+url.PathEscape(live[i]), "")
					live = append(live[:i], live[i+1:]...)
				case op < 5 && len(live) > 0: // replace
					b, _ := json.Marshal(docRequest{Name: live[rng.Intn(len(live))], XML: diffDoc(rng)})
					mutate("POST", "/admin/docs", string(b))
				default: // add, or replace once the pool is full
					name := "m" + strconv.Itoa(rng.Intn(8)) + ".xml"
					b, _ := json.Marshal(docRequest{Name: name, XML: diffDoc(rng)})
					mutate("POST", "/admin/docs", string(b))
					if !slices.Contains(live, name) {
						live = append(live, name)
					}
				}
				get(t, cached, hot)
				if hits, _ := cached.CacheStats(); hits != hitsBefore+1 {
					t.Fatalf("step %d: an answer over untouched documents did not survive the mutation", step)
				}
				for _, i := range rng.Perm(len(queries)) {
					_, want := get(t, plain, queries[i])
					code, got := get(t, cached, queries[i])
					if code != 200 || got != want {
						t.Fatalf("step %d: %s: cached handler answered %d\n%s\nuncached:\n%s", step, queries[i], code, got, want)
					}
				}
			}
			if invalidated, purges := cached.CacheEvictions(); purges != 0 || invalidated == 0 {
				t.Errorf("invalidated=%d purges=%d: want selective eviction only", invalidated, purges)
			}
		})
	}
}

// gatedSearcher blocks every search inside the "engine" until gate is
// closed, announcing each arrival on entered. It wraps Search, the one
// method the handler searches through.
type gatedSearcher struct {
	gks.Searcher
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedSearcher) Search(ctx context.Context, req gks.SearchRequest) (*gks.Response, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.Searcher.Search(ctx, req)
}

// within receives from ch, failing the test when nothing arrives within
// 10 s: a wait the code under test never satisfies (a wrapper the handler
// stopped calling, a lost wake-up) fails in seconds, not at the go test
// timeout.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	var zero T
	return zero
}

// TestCacheFillRace: a search that started on generation g and finishes
// after SwapDoc installed g+1 answers its own caller but must not become
// resident, and a request issued after the swap must not join its flight.
func TestCacheFillRace(t *testing.T) {
	old := &gatedSearcher{Searcher: testSystem(t), entered: make(chan struct{}), gate: make(chan struct{})}
	next, err := gks.IndexDocuments(gks.BuildDocument("other.xml", gks.E("r", gks.ET("v", "walter"))))
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithCache(old, 8)
	const q = "/search?q=mike&s=1"

	type answer struct {
		code int
		body string
	}
	slow := make(chan answer)
	go func() {
		req := httptest.NewRequest("GET", q, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		slow <- answer{rec.Code, rec.Body.String()}
	}()
	within(t, "the first search to enter the engine", old.entered) // blocked there on generation 1

	if gen, _ := h.SwapDoc(next, "other.xml"); gen != 2 {
		t.Fatalf("SwapDoc generation = %d, want 2", gen)
	}
	// Issued after the swap: served by the new system while the old search
	// is still blocked — sharing its flight would hang here.
	code, fresh := get(t, h, q)
	if code != 200 || !strings.Contains(fresh, `"total": 0`) {
		t.Fatalf("post-swap request: %d %s", code, fresh)
	}

	close(old.gate)
	if a := within(t, "the pre-swap /search answer", slow); a.code != 200 || !strings.Contains(a.body, `"total": 1`) {
		t.Fatalf("pre-swap request must get the answer of the system it searched: %d %s", a.code, a.body)
	}
	if _, after := get(t, h, q); after != fresh {
		t.Fatalf("the stale answer became resident:\n%s", after)
	}

	// The same race for a view of a query that has an entry: an /insights
	// computed on generation 1 finishes after a swap changed its answer and
	// after generation 2 cached the query's /search view. It must not join
	// that entry as a second view.
	sys1 := testSystem(t)
	sys2, _, err := sys1.Upsert(gks.BuildDocument("night.xml", gks.E("Dept", gks.E("Course",
		gks.ET("Name", "Quantum"), gks.E("Students", gks.ET("Student", "Mike"), gks.ET("Student", "Zed"))))))
	if err != nil {
		t.Fatal(err)
	}
	h = NewWithCache(sys1, 8)
	hold := &holdingObserver{entered: make(chan struct{}), release: make(chan struct{})}
	hold.armed.Store(true)
	h.SetSearchObserver(hold)
	const insights = "/insights?q=mike&s=1&m=9"
	go func() {
		code, body := get(t, h, insights)
		slow <- answer{code, body}
	}()
	within(t, "the /insights search to reach the observer", hold.entered) // searched generation 1, not yet encoded or filled
	if gen, _ := h.SwapDoc(sys2, "night.xml"); gen != 2 {
		t.Fatalf("SwapDoc generation = %d, want 2", gen)
	}
	get(t, h, q) // generation 2 makes the query's entry
	close(hold.release)
	_, want1 := get(t, New(sys1), insights)
	_, want2 := get(t, New(sys2), insights)
	if want1 == want2 {
		t.Fatal("the swap was meant to change the insights")
	}
	if a := within(t, "the pre-swap /insights answer", slow); a.code != 200 || a.body != want1 {
		t.Fatalf("pre-swap /insights must get the answer of the system it searched: %d %s", a.code, a.body)
	}
	hits, _ := h.CacheStats()
	if _, got := get(t, h, insights); got != want2 {
		t.Fatalf("a stale view joined the new generation's entry:\n%s", got)
	}
	if after, _ := h.CacheStats(); after != hits {
		t.Fatal("the discarded view was served from the cache")
	}
}

// holdingObserver blocks the first search observed while armed — after the
// engine ran, before the handler encodes and fills.
type holdingObserver struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (o *holdingObserver) ObserveSearchStage(string, float64) {}
func (o *holdingObserver) ObserveSLSize(int) {
	if o.armed.CompareAndSwap(true, false) {
		o.entered <- struct{}{}
		<-o.release
	}
}

// TestCacheAccountingPerView: hits and misses count one lookup per request
// for the view it asked — an entry that lacks the view is a miss, a fill
// counts nothing, /explain looks nothing up — and every view of a query
// shares the query's one entry.
func TestCacheAccountingPerView(t *testing.T) {
	h := NewWithCache(testSystem(t), 8)
	steps := []struct {
		url          string
		hits, misses int64
	}{
		{"/search?q=karen&s=1", 0, 1},
		{"/insights?q=karen&s=1", 0, 2}, // entry present, view absent
		{"/insights?q=karen&s=1", 1, 2},
		{"/insights?q=karen&s=1&m=5", 2, 2}, // the default, spelled out
		{"/search?q=karen&s=1&top=3", 2, 3},
		{"/refine?q=karen&s=1", 2, 4},
		{"/refine?q=karen&s=1", 3, 4},
		{"/explain?q=karen&s=1", 3, 4},
		{"/search?q=karen&s=1", 4, 4},
		{"/search?q=karen&s=2", 4, 5}, // another query
	}
	for i, st := range steps {
		if code, body := get(t, h, st.url); code != 200 {
			t.Fatalf("step %d %s: %d %s", i, st.url, code, body)
		}
		if hits, misses := h.CacheStats(); hits != st.hits || misses != st.misses {
			t.Fatalf("step %d %s: stats %d/%d, want %d/%d", i, st.url, hits, misses, st.hits, st.misses)
		}
	}
	if n := h.respCache.Len(); n != 2 {
		t.Fatalf("%d entries for two queries", n)
	}
}

// TestCacheViewsBound: asking one query for fifty different tops leaves one
// entry holding the last maxViews bodies.
func TestCacheViewsBound(t *testing.T) {
	h := NewWithCache(testSystem(t), 8)
	for top := 1; top <= 50; top++ {
		get(t, h, "/search?q=karen&s=1&top="+strconv.Itoa(top))
	}
	a, ok := h.respCache.Peek(cacheKey("karen", 1))
	if n := h.respCache.Len(); !ok || n != 1 || len(a.views) != maxViews {
		t.Fatalf("%d entries, %d views; want 1 entry of %d views", n, len(a.views), maxViews)
	}
	for i, v := range a.views {
		if want := (viewKey{"/search", 50 - maxViews + 1 + i}); v.key != want {
			t.Errorf("view %d is %+v, want %+v", i, v.key, want)
		}
	}
	hits, _ := h.CacheStats()
	get(t, h, "/search?q=karen&s=1&top=50")
	get(t, h, "/search?q=karen&s=1&top=1") // long dropped
	if after, _ := h.CacheStats(); after != hits+1 {
		t.Fatalf("hits moved by %d, want 1 (top=50 resident, top=1 dropped)", after-hits)
	}
}

// TestPartialViewsFlaggedAndNotCached: /insights and /refine over a
// degraded response say so and are not stored; once the shard recovers the
// complete answer is.
func TestPartialViewsFlaggedAndNotCached(t *testing.T) {
	for _, url := range []string{"/insights?q=karen&s=1", "/refine?q=karen+mike&s=1"} {
		ps := &partialSearcher{Searcher: testSystem(t)}
		ps.degraded.Store(true)
		h := NewWithCache(ps, 16)
		if code, body := get(t, h, url); code != 200 || !strings.Contains(body, `"partial": true`) {
			t.Fatalf("%s degraded: %d %s", url, code, body)
		}
		if n := h.respCache.Len(); n != 0 {
			t.Fatalf("%s: a partial answer was stored", url)
		}
		ps.degraded.Store(false)
		for i := 0; i < 2; i++ {
			if code, body := get(t, h, url); code != 200 || !strings.Contains(body, `"partial": false`) {
				t.Fatalf("%s recovered: %d %s", url, code, body)
			}
		}
		if hits, misses := h.CacheStats(); hits != 1 || misses != 2 {
			t.Fatalf("%s: stats %d/%d, want 1/2", url, hits, misses)
		}
	}
}

// TestInsightsMissesCoalesce: identical concurrent /insights misses share
// one engine search, as /search misses do.
func TestInsightsMissesCoalesce(t *testing.T) {
	gated := &gatedSearcher{Searcher: testSystem(t), entered: make(chan struct{}, 16), gate: make(chan struct{})}
	h := NewWithCache(gated, 8)
	const workers = 8
	bodies := make(chan string, workers)
	ask := func() {
		_, body := get(t, h, "/insights?q=karen&s=1")
		bodies <- body
	}
	go ask()
	within(t, "the leader to enter the engine", gated.entered)
	for i := 1; i < workers; i++ {
		go ask()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, misses := h.CacheStats(); misses < workers; _, misses = h.CacheStats() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for every follower to miss: %d of %d", misses, workers)
		}
		runtime.Gosched()
	}
	// Every follower has missed; between that and joining the flight it
	// runs a few instructions and cannot block. Give it that long.
	time.Sleep(50 * time.Millisecond)
	close(gated.gate)
	first := within(t, "the first /insights body", bodies)
	for i := 1; i < workers; i++ {
		if b := within(t, fmt.Sprintf("/insights body %d", i+1), bodies); b != first {
			t.Fatalf("a follower got a different body:\n%s\nvs\n%s", b, first)
		}
	}
	if n := 1 + len(gated.entered); n != 1 {
		t.Fatalf("the engine ran %d times, want 1", n)
	}
}

// TestCacheReplicaApplyEvictsLikeLeader: a follower applying the leader's
// records through ReplicaApplier.Apply drops exactly the cached answers the
// leader's Ingester drops for the same mutations.
func TestCacheReplicaApplyEvictsLikeLeader(t *testing.T) {
	dir := t.TempDir()
	leader := NewWithCache(testSystem(t), 16)
	ing := NewIngester(NewReloader(leader, nil, nil, nil), nil, nil, nil).Handler()

	follower := NewWithCache(testSystem(t), 16)
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	applier := NewReplicaApplier(NewReloader(follower, nil, nil, nil), l, filepath.Join(dir, "f.gksidx"), nil, nil, nil)

	queries := []string{"/search?q=karen&s=1", "/search?q=mike+julie&s=1", "/search?q=neutrino&s=1", "/search?q=student&s=1", "/search?q=item&s=1"}
	warm := func() {
		for _, q := range queries {
			get(t, leader, q)
			get(t, follower, q)
		}
	}
	steps := []wal.Record{
		{LSN: 1, Op: wal.OpUpsert, Name: "p.xml", Doc: "<root><item>neutrino</item></root>"},
		{LSN: 2, Op: wal.OpUpsert, Name: "p.xml", Doc: "<root><note>Mike</note></root>"},
		{LSN: 3, Op: wal.OpDelete, Name: "p.xml"},
	}
	for _, rec := range steps {
		warm()
		if rec.Op == wal.OpDelete {
			if code, body := adminReq(t, ing, "DELETE", "/admin/docs/"+rec.Name, ""); code != 200 {
				t.Fatalf("leader delete: %d %s", code, body)
			}
		} else {
			b, _ := json.Marshal(docRequest{Name: rec.Name, XML: rec.Doc})
			if code, body := adminReq(t, ing, "POST", "/admin/docs", string(b)); code != 200 {
				t.Fatalf("leader upsert: %d %s", code, body)
			}
		}
		if err := applier.Apply(rec); err != nil {
			t.Fatal(err)
		}
		li, lp := leader.CacheEvictions()
		fi, fp := follower.CacheEvictions()
		if li != fi || lp != 0 || fp != 0 {
			t.Fatalf("lsn %d: leader invalidated %d (purges %d), follower %d (purges %d)", rec.LSN, li, lp, fi, fp)
		}
		for _, q := range queries {
			lh, _ := leader.CacheStats()
			fh, _ := follower.CacheStats()
			_, lb := get(t, leader, q)
			_, fb := get(t, follower, q)
			lh2, _ := leader.CacheStats()
			fh2, _ := follower.CacheStats()
			if lb != fb || lh2-lh != fh2-fh {
				t.Fatalf("lsn %d: %s: leader hit=%d follower hit=%d\nleader:\n%s\nfollower:\n%s", rec.LSN, q, lh2-lh, fh2-fh, lb, fb)
			}
		}
	}
	if n, _ := leader.CacheEvictions(); n == 0 {
		t.Fatal("the history was meant to invalidate something")
	}
}

// TestSwapDocWrappedSearcherEvictsSelectively: a wrapper embedding the
// served system (a tracer, a gate) inherits its DocHolds, so SwapDoc drops
// only the entries whose tokens the document holds, exactly as for the bare
// system — it does not purge.
func TestSwapDocWrappedSearcherEvictsSelectively(t *testing.T) {
	sys := testSystem(t)
	next, _, err := sys.Upsert(gks.BuildDocument("new.xml", gks.E("r", gks.ET("v", "karen"))))
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]gks.Searcher{
		"bare":    {sys, next},
		"wrapped": {&partialSearcher{Searcher: sys}, &partialSearcher{Searcher: next}},
	} {
		h := NewWithCache(pair[0], 8)
		get(t, h, "/search?q=karen&s=1")
		get(t, h, "/search?q=julie&s=1")
		if _, dropped := h.SwapDoc(pair[1], "new.xml"); dropped != 1 {
			t.Fatalf("%s: dropped %d entries, want the one holding karen", name, dropped)
		}
		if invalidated, purges := h.CacheEvictions(); invalidated != 1 || purges != 0 {
			t.Fatalf("%s: invalidated=%d purges=%d, want 1/0", name, invalidated, purges)
		}
		hits, _ := h.CacheStats()
		get(t, h, "/search?q=julie&s=1")
		if after, _ := h.CacheStats(); after != hits+1 {
			t.Fatalf("%s: the answer over untouched tokens did not survive", name)
		}
	}
}

// TestSearchSendsContentLength: fills and hits both carry the body length.
func TestSearchSendsContentLength(t *testing.T) {
	h := NewWithCache(testSystem(t), 8)
	for _, kind := range []string{"fill", "hit"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=karen&s=1", nil))
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) || rec.Body.Len() == 0 {
			t.Errorf("%s: Content-Length %q for a %d-byte body", kind, got, rec.Body.Len())
		}
	}
	if hits, _ := h.CacheStats(); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// TestWriteJSONEncodeFailure: a value that fails to encode answers a clean
// JSON 500 — nothing of a 200 is sent first.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, searchJSON{Query: "q", Results: []resultJSON{{ID: "0.1", Rank: math.NaN()}}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !strings.Contains(out["error"], "NaN") {
		t.Fatalf("body is not a JSON error naming the value: %v\n%s", err, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
}
