package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// gksdChain wraps api in the middleware chain cmd/gksd serves its API with,
// access log included, at the default -max-inflight and the timeout d.
func gksdChain(api http.Handler, reg *obs.Registry, d time.Duration) http.Handler {
	return Chain(api,
		WithMetrics(reg),
		WithAccessLog(discardLogger()),
		WithRecovery(reg, discardLogger()),
		WithLimit(256, reg),
		WithTimeout(d),
	)
}

// cachedHitChain is the full gksd chain around a cached handler, and a
// /search request it has already answered once.
func cachedHitChain(tb testing.TB) (http.Handler, *http.Request) {
	reg := obs.NewRegistry()
	api := NewWithCache(testSystem(tb), 64)
	reg.SetCacheStats(api.CacheStats)
	api.SetSearchObserver(reg)
	h := gksdChain(api, reg, 10*time.Second)
	req := httptest.NewRequest("GET", "/search?q=karen+mike&s=2", nil)
	rec := httptest.NewRecorder()
	if h.ServeHTTP(rec, req); rec.Code != 200 {
		tb.Fatalf("warming /search: status %d", rec.Code)
	}
	if hits, _ := api.CacheStats(); hits != 0 {
		tb.Fatalf("the warming request hit the cache")
	}
	return h, req
}

// BenchmarkChainCachedHit prices the middleware chain: a warm /search hit
// is one Write of stored bytes, so nearly all the rest is the chain.
func BenchmarkChainCachedHit(b *testing.B) {
	h, req := cachedHitChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// chainCachedHitAllocs is what one cached /search hit allocates through the
// gksd chain, the recorder included (measured at one statusWriter, no
// goroutine and no response buffer per request).
const chainCachedHitAllocs = 30

// TestChainCachedHitAllocs keeps a per-request buffer, goroutine or second
// wrapper from coming back to the chain unnoticed.
func TestChainCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	h, req := cachedHitChain(t)
	if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(httptest.NewRecorder(), req) }); got > chainCachedHitAllocs {
		t.Errorf("a cached /search hit through the gksd chain allocates %v times, want at most %d", got, chainCachedHitAllocs)
	}
}

// TestTimedOutRequestKeepsItsSlot: a request past its deadline holds its
// WithLimit slot until its handler returns, so with a cap of 1 no second
// handler runs beside one that ignores its context.
func TestTimedOutRequestKeepsItsSlot(t *testing.T) {
	reg := obs.NewRegistry()
	var running, mostRunning, mostInFlight atomic.Int64
	raise := func(m *atomic.Int64, v int64) {
		for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
		}
	}
	entered := make(chan struct{}, 2)
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raise(&mostRunning, running.Add(1))
		defer running.Add(-1)
		raise(&mostInFlight, int64(reg.Value("gks_http_in_flight")))
		entered <- struct{}{}
		time.Sleep(300 * time.Millisecond) // ignores ctx
		raise(&mostInFlight, int64(reg.Value("gks_http_in_flight")))
		w.Write([]byte("late"))
	}), WithLimit(1, reg), WithTimeout(50*time.Millisecond))

	start := time.Now()
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- doReq(h, "/a") }()
	within(t, "the first handler", entered)
	time.Sleep(150*time.Millisecond - time.Since(start))
	if rec := doReq(h, "/b"); rec.Code != 503 {
		t.Errorf("second request at 150 ms: status %d, want 503 (the first still runs)", rec.Code)
	}
	if rec := within(t, "the first answer", first); rec.Code != 504 {
		t.Errorf("first request: status %d, want 504", rec.Code)
	}
	if n := mostRunning.Load(); n > 1 {
		t.Errorf("%d handlers ran at once under a cap of 1", n)
	}
	if n := mostInFlight.Load(); n > 1 {
		t.Errorf("gks_http_in_flight read %d under a cap of 1", n)
	}
}

// TestStalledSearchAnswers504: a real /search miss held past its deadline
// after the engine ran — it then encodes, fills the cache and writes its
// 200 — reaches the client as the JSON 504 alone, never as a late 200.
func TestStalledSearchAnswers504(t *testing.T) {
	const d = 50 * time.Millisecond
	reg := obs.NewRegistry()
	api := NewWithCache(testSystem(t), 8)
	hold := &holdingObserver{entered: make(chan struct{}), release: make(chan struct{})}
	hold.armed.Store(true)
	api.SetSearchObserver(hold)
	h := gksdChain(api, reg, d)

	got := make(chan *httptest.ResponseRecorder, 1)
	go func() { got <- doReq(h, "/search?q=karen+mike&s=2") }()
	within(t, "the search to reach the observer", hold.entered)
	time.Sleep(2 * d)
	close(hold.release)
	rec := within(t, "the stalled answer", got)

	res, body := rec.Result(), rec.Body.String()
	var msg map[string]string
	if res.StatusCode != 504 || json.Unmarshal([]byte(body), &msg) != nil || msg["error"] != "request timed out" {
		t.Fatalf("stalled /search: status %d, body %q; want the JSON 504", res.StatusCode, body)
	}
	if cl := res.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q for a %d-byte 504 body", cl, len(body))
	}
	if strings.Contains(body, "results") || strings.Contains(body, "karen") {
		t.Errorf("the search body leaked into the 504: %q", body)
	}
	if n := reg.Value("gks_http_errors_total", "endpoint", "/search", "code", "504"); n != 1 {
		t.Errorf(`gks_http_errors_total{endpoint="/search",code="504"} = %v, want 1`, n)
	}

	// A handler that writes nothing past its deadline: net/http would send
	// an implicit 200.
	silent := gksdChain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}), reg, d)
	if rec := doReq(silent, "/stats"); rec.Code != 504 || !strings.Contains(rec.Body.String(), "request timed out") {
		t.Errorf("silent handler past its deadline: status %d, body %q; want the JSON 504", rec.Code, rec.Body.String())
	}
}
