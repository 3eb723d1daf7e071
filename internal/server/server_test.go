package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	gks "repro"
)

func testSystem(t testing.TB) *gks.System {
	t.Helper()
	doc := gks.BuildDocument("uni.xml", gks.E("Dept",
		gks.ET("Dept_Name", "CS"),
		gks.E("Area",
			gks.ET("Name", "Databases"),
			gks.E("Courses",
				gks.E("Course",
					gks.ET("Name", "Data Mining"),
					gks.E("Students",
						gks.ET("Student", "Karen"),
						gks.ET("Student", "Mike"),
					),
				),
				gks.E("Course",
					gks.ET("Name", "Algorithms"),
					gks.E("Students",
						gks.ET("Student", "Karen"),
						gks.ET("Student", "Julie"),
					),
				),
			),
		),
	))
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testHandler(t *testing.T) *Handler {
	t.Helper()
	return New(testSystem(t))
}

func get(t *testing.T, h *Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestSearchEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/search?q=karen+mike&s=2")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		Query   string `json:"query"`
		S       int    `json:"s"`
		Total   int    `json:"total"`
		SLSize  int    `json:"slSize"`
		Results []struct {
			ID     string  `json:"id"`
			Label  string  `json:"label"`
			Rank   float64 `json:"rank"`
			Entity bool    `json:"entity"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Total != 1 || len(out.Results) != 1 {
		t.Fatalf("results = %+v", out)
	}
	if out.Results[0].Label != "Course" || !out.Results[0].Entity {
		t.Errorf("result = %+v", out.Results[0])
	}
}

func TestSearchBestEffortViaS0(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/search?q=karen+julie+mike&s=0")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var out struct {
		S int `json:"s"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.S < 2 {
		t.Errorf("best-effort s = %d, want >= 2", out.S)
	}
}

func TestSearchTopParameter(t *testing.T) {
	h := testHandler(t)
	_, body := get(t, h, "/search?q=karen&s=1&top=1")
	var out struct {
		Total   int           `json:"total"`
		Results []interface{} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Total < 2 || len(out.Results) != 1 {
		t.Errorf("top truncation failed: total=%d printed=%d", out.Total, len(out.Results))
	}
}

func TestInsightsEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/insights?q=karen&s=1&m=3")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "Data Mining") && !strings.Contains(body, "Algorithms") {
		t.Errorf("insights missing course names: %s", body)
	}
}

func TestRefineEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/refine?q=karen+julie+mike&s=2")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "refinements") {
		t.Errorf("refine body: %s", body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/explain?q=karen+mike&s=2")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var out map[string]interface{}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"slSize", "blocks", "survivors"} {
		if _, ok := out[key]; !ok {
			t.Errorf("explain missing %q: %s", key, body)
		}
	}
}

func TestBaselinesEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/baselines?q=karen+mike")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "slca") || !strings.Contains(body, "elca") {
		t.Errorf("baselines body: %s", body)
	}
}

func TestSchemaAndStatsEndpoints(t *testing.T) {
	h := testHandler(t)
	if code, body := get(t, h, "/schema"); code != 200 || !strings.Contains(body, "Student") {
		t.Errorf("schema: %d %s", code, body)
	}
	if code, body := get(t, h, "/stats"); code != 200 || !strings.Contains(body, "EntityNodes") {
		t.Errorf("stats: %d %s", code, body)
	}
}

func TestMissingQuery(t *testing.T) {
	h := testHandler(t)
	for _, url := range []string{"/search", "/insights", "/refine", "/explain", "/baselines"} {
		if code, _ := get(t, h, url); code != 400 {
			t.Errorf("%s without q: status %d, want 400", url, code)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	// The index is immutable; concurrent searches must be race-free
	// (validated under -race in CI).
	h := testHandler(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			urls := []string{
				"/search?q=karen&s=1",
				"/insights?q=mike&s=1",
				"/baselines?q=karen+mike",
				"/stats",
			}
			code, _ := get(t, h, urls[i%len(urls)])
			if code != 200 {
				t.Errorf("concurrent request failed: %d", code)
			}
		}(i)
	}
	wg.Wait()
}

func TestTypesEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/types?q=karen+mike&top=2")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "Course") {
		t.Errorf("types body: %s", body)
	}
	if code, _ := get(t, h, "/types"); code != 400 {
		t.Errorf("missing q: %d", code)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/suggest?kw=karne")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "karen") {
		t.Errorf("suggest body: %s", body)
	}
	if code, _ := get(t, h, "/suggest"); code != 400 {
		t.Errorf("missing kw: %d", code)
	}
}

// Regression: the old cache key fmt.Sprintf("%s|%d|%d", q, s, top) joined
// the raw query with the numeric fields, so a "|" inside q could bleed into
// them. The quoted key, with a view's parameter appended as the flight key
// appends it, must keep every distinct triple distinct.
func TestCacheKeyPipeCollisionProof(t *testing.T) {
	triples := []struct {
		q      string
		s, top int
	}{
		{"a", 1, 10}, {"a|1", 1, 10}, {"a|1|1", 10, 10}, {"a|1", 10, 10},
		{`a"b`, 1, 10}, {"a", 11, 0}, {"a|1|10", 1, 10},
	}
	seen := make(map[string]int)
	for i, tr := range triples {
		k := cacheKey(tr.q, tr.s) + "|" + strconv.Itoa(tr.top)
		if j, dup := seen[k]; dup {
			t.Errorf("cacheKey collision between %+v and %+v: %q", triples[j], triples[i], k)
		}
		seen[k] = i
	}
}

func TestCachedSearchPipeQuery(t *testing.T) {
	h := NewWithCache(testSystem(t), 8)
	// "karen|mike" tokenizes like "karen mike"; a query containing "|" must
	// hit its own cache entry, not a neighboring one.
	code, piped := get(t, h, "/search?q=karen%7Cmike&s=2")
	if code != 200 {
		t.Fatalf("status %d: %s", code, piped)
	}
	if code, again := get(t, h, "/search?q=karen%7Cmike&s=2"); code != 200 || again != piped {
		t.Errorf("piped query not cached consistently")
	}
	if code, plain := get(t, h, "/search?q=karen&s=1"); code != 200 || plain == piped {
		t.Errorf("distinct query served the piped query's entry")
	}
	hits, misses := h.CacheStats()
	if hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

func TestMalformedIntParamsRejected(t *testing.T) {
	h := testHandler(t)
	for _, url := range []string{
		"/search?q=karen&s=abc",
		"/search?q=karen&top=1.5",
		"/search?q=karen&top=",
		"/insights?q=karen&m=x",
		"/refine?q=karen&top=x",
		"/explain?q=karen&s=x",
		"/types?q=karen&top=x",
		"/suggest?kw=karen&dist=x",
		"/suggest?kw=karen&top=x",
	} {
		code, body := get(t, h, url)
		if code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", url, code, body)
		}
		if !strings.Contains(body, "invalid") {
			t.Errorf("%s: body should name the invalid parameter: %s", url, body)
		}
	}
}

// Regression: top=-1 used to disable truncation and return the unbounded
// result set; negative integers are now rejected outright.
func TestNegativeParamsRejected(t *testing.T) {
	h := testHandler(t)
	for _, url := range []string{
		"/search?q=karen&top=-1",
		"/search?q=karen&s=-2",
		"/insights?q=karen&m=-1",
		"/suggest?kw=karen&dist=-1",
	} {
		if code, body := get(t, h, url); code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", url, code, body)
		}
	}
}

func TestTopZeroAndClamp(t *testing.T) {
	h := testHandler(t)
	_, body := get(t, h, "/search?q=karen&s=1&top=0")
	var out struct {
		Total   int           `json:"total"`
		Results []interface{} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Total < 2 || len(out.Results) != 0 {
		t.Errorf("top=0 should return metadata only: total=%d printed=%d", out.Total, len(out.Results))
	}
	// Values above the cap are clamped, not rejected.
	if code, _ := get(t, h, "/search?q=karen&s=1&top=99999999"); code != 200 {
		t.Errorf("oversized top should be clamped to maxTop, got status %d", code)
	}
}

func TestNotFoundJSON(t *testing.T) {
	h := testHandler(t)
	for _, url := range []string{"/nope", "/", "/search/extra"} {
		code, body := get(t, h, url)
		if code != 404 {
			t.Errorf("%s: status %d, want 404", url, code)
		}
		var out struct {
			Error     string   `json:"error"`
			Endpoints []string `json:"endpoints"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("%s: 404 body is not JSON: %v\n%s", url, err, body)
		}
		found := false
		for _, ep := range out.Endpoints {
			found = found || ep == "/search"
		}
		if !found {
			t.Errorf("%s: 404 body should list known endpoints: %s", url, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := testHandler(t)
	for _, method := range []string{"POST", "PUT", "DELETE"} {
		req := httptest.NewRequest(method, "/search?q=karen", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 405 {
			t.Errorf("%s /search: status %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("%s /search: Allow header = %q", method, allow)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Errorf("405 should be JSON, got Content-Type %q", ct)
		}
	}
}

// writeError must route client mistakes to 400, context expiry to 504, and
// everything else to 500 — internal failures no longer masquerade as 400s.
func TestErrorStatusSplit(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{badRequest(errors.New("bad param")), 400},
		{fmt.Errorf("wrapped: %w", badRequest(errors.New("bad"))), 400},
		{context.DeadlineExceeded, 504},
		{fmt.Errorf("search: %w", context.Canceled), 504},
		{errors.New("disk exploded"), 500},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, c.err)
		if rec.Code != c.want {
			t.Errorf("writeError(%v) = %d, want %d", c.err, rec.Code, c.want)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Errorf("writeError(%v): Content-Type %q", c.err, ct)
		}
	}
}

// Singleflight + shared cache under -race: many goroutines hammering the
// same cold key must all succeed and agree on the response body.
func TestSearchSingleflightHammer(t *testing.T) {
	h := NewWithCache(testSystem(t), 32)
	const workers = 64
	bodies := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := get(t, h, "/search?q=karen+mike&s=2")
			if code != 200 {
				t.Errorf("worker %d: status %d", i, code)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("worker %d saw a different response body", i)
		}
	}
	if hits, misses := h.CacheStats(); hits+misses != workers {
		t.Errorf("cache saw %d lookups, want %d", hits+misses, workers)
	}
}

func TestCachedSearch(t *testing.T) {
	doc := gks.BuildDocument("c.xml", gks.E("r",
		gks.E("item", gks.ET("name", "widget"), gks.ET("color", "red")),
		gks.E("item", gks.ET("name", "gadget"), gks.ET("color", "red")),
	))
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithCache(sys, 8)
	first := ""
	for i := 0; i < 3; i++ {
		code, body := get(t, h, "/search?q=red&s=1")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		if i == 0 {
			first = body
		} else if body != first {
			t.Fatal("cached response differs from first response")
		}
	}
	// Different parameters bypass the cached entry.
	_, other := get(t, h, "/search?q=red&s=1&top=1")
	if other == first {
		t.Error("top parameter must key the cache")
	}
}

// partialSearcher wraps a Searcher and, while degraded, marks every
// search response partial — simulating a shard set degrading under a
// transient shard failure with -partial-results. It wraps Search, the one
// method the handler searches through.
type partialSearcher struct {
	gks.Searcher
	degraded atomic.Bool
}

func (p *partialSearcher) Search(ctx context.Context, req gks.SearchRequest) (*gks.Response, error) {
	resp, err := p.Searcher.Search(ctx, req)
	if err == nil && p.degraded.Load() {
		c := *resp
		c.Partial = true
		resp = &c
	}
	return resp, err
}

// TestPartialResponsesFlaggedAndNotCached: a degraded response must carry
// partial=true on the wire and must NOT enter the response cache — once
// the failing shard recovers, the same query must come back complete.
func TestPartialResponsesFlaggedAndNotCached(t *testing.T) {
	ps := &partialSearcher{Searcher: testSystem(t)}
	ps.degraded.Store(true)
	h := NewWithCache(ps, 16)

	var out struct {
		Partial bool `json:"partial"`
	}
	code, body := get(t, h, "/search?q=karen&s=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if !out.Partial {
		t.Fatalf("degraded response not flagged partial: %s", body)
	}

	ps.degraded.Store(false)
	code, body = get(t, h, "/search?q=karen&s=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Partial {
		t.Fatalf("recovered search served the cached partial response: %s", body)
	}
	if hits, misses := h.CacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("cache stats after partial + complete search: hits=%d misses=%d, want 0/2", hits, misses)
	}

	// The complete response IS cached.
	if code, _ := get(t, h, "/search?q=karen&s=1"); code != 200 {
		t.Fatalf("status %d", code)
	}
	if hits, _ := h.CacheStats(); hits != 1 {
		t.Fatalf("complete response not cached: hits=%d, want 1", hits)
	}
}
