package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func doReq(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func TestRecoveryMiddlewarePanicTo500(t *testing.T) {
	reg := obs.NewRegistry()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}), WithMetrics(reg), WithRecovery(reg, discardLogger()))

	rec := doReq(h, "/search?q=x")
	if rec.Code != 500 {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body not JSON: %v", err)
	}
	if panics := reg.Value("gks_http_panics_total"); panics != 1 {
		t.Errorf("panic counter = %v, want 1", panics)
	}
}

func TestRecoveryThroughTimeoutGoroutine(t *testing.T) {
	// A panic inside WithTimeout's handler goroutine must be re-raised and
	// still land in WithRecovery instead of killing the process.
	reg := obs.NewRegistry()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("inside timeout")
	}), WithRecovery(reg, discardLogger()), WithTimeout(time.Second))

	rec := doReq(h, "/x")
	if rec.Code != 500 {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if panics := reg.Value("gks_http_panics_total"); panics != 1 {
		t.Errorf("panic counter = %v, want 1", panics)
	}
}

func TestTimeoutMiddleware504(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // deadline propagated to the handler
		case <-time.After(5 * time.Second):
		}
		w.Write([]byte("too late"))
	}), WithTimeout(20*time.Millisecond))

	start := time.Now()
	rec := doReq(h, "/slow")
	if rec.Code != 504 {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "too late") {
		t.Error("timed-out handler output leaked into the response")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not fire promptly")
	}
}

func TestTimeoutMiddlewareFastPathUntouched(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(201)
		w.Write([]byte("fast"))
	}), WithTimeout(time.Second))

	rec := doReq(h, "/fast")
	if rec.Code != 201 || rec.Body.String() != "fast" || rec.Header().Get("X-Custom") != "yes" {
		t.Errorf("buffered response mangled: %d %q %q", rec.Code, rec.Body.String(), rec.Header().Get("X-Custom"))
	}
}

func TestLimitMiddlewareSheds503(t *testing.T) {
	reg := obs.NewRegistry()
	enter := make(chan struct{})
	release := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enter <- struct{}{}
		<-release
		w.Write([]byte("ok"))
	}), WithLimit(1, reg))

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- doReq(h, "/a") }()
	<-enter // first request now holds the only slot

	rec := doReq(h, "/b")
	if rec.Code != 503 {
		t.Fatalf("overflow status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}
	close(release)
	if first := <-done; first.Code != 200 {
		t.Errorf("in-flight request status %d, want 200", first.Code)
	}
	if shed := reg.Value("gks_http_load_shed_total"); shed != 1 {
		t.Errorf("shed counter = %v, want 1", shed)
	}
	// The slot must be reusable after the first request drains.
	reuse := make(chan *httptest.ResponseRecorder, 1)
	go func() { reuse <- doReq(h, "/c") }()
	<-enter // release is already closed, so the handler completes
	if rec := <-reuse; rec.Code != 200 {
		t.Errorf("slot not released: status %d, want 200", rec.Code)
	}
}

func TestMetricsMiddlewareExport(t *testing.T) {
	reg := obs.NewRegistry()
	api := testHandler(t)
	h := Chain(api, WithMetrics(reg))

	doReq(h, "/search?q=karen&s=1")
	doReq(h, "/search?q=karen&top=-1") // 400
	doReq(h, "/stats")
	doReq(h, "/definitely-not-real") // 404 → endpoint label "other"

	out := metricsText(reg)
	for _, want := range []string{
		`gks_http_requests_total{endpoint="/search"} 2`,
		`gks_http_requests_total{endpoint="/stats"} 1`,
		`gks_http_requests_total{endpoint="other"} 1`,
		`gks_http_errors_total{endpoint="/search",code="400"} 1`,
		`gks_http_errors_total{endpoint="other",code="404"} 1`,
		`gks_http_request_duration_seconds_count{endpoint="/search"} 2`,
		`gks_http_request_duration_seconds_bucket{endpoint="/search",le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

// Full production stack under -race: concurrent traffic through metrics,
// recovery, limiter, timeout, shared cache and singleflight.
func TestFullStackConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	api := NewWithCache(testSystem(t), 64)
	reg.SetCacheStats(api.CacheStats)
	h := Chain(api,
		WithMetrics(reg),
		WithRecovery(reg, discardLogger()),
		WithLimit(128, reg),
		WithTimeout(time.Second),
	)

	urls := []string{
		"/search?q=karen+mike&s=2",
		"/search?q=karen&s=1",
		"/insights?q=mike&s=1",
		"/stats",
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doReq(h, urls[i%len(urls)])
			if rec.Code != 200 {
				t.Errorf("%s: status %d", urls[i%len(urls)], rec.Code)
			}
		}(i)
	}
	wg.Wait()
	requests := reg.Value("gks_http_requests_total", "endpoint", "/search") +
		reg.Value("gks_http_requests_total", "endpoint", "/insights") +
		reg.Value("gks_http_requests_total", "endpoint", "/stats")
	if out := metricsText(reg); requests != 64 || strings.Contains(out, "gks_http_errors_total{") {
		t.Errorf("metrics saw %v requests, want 64 and no error series:\n%s", requests, out)
	}
}
