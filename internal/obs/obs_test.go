package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObserveRequestAggregates(t *testing.T) {
	r := NewRegistry()
	r.ObserveRequest("/search", 200, 500*time.Microsecond)
	r.ObserveRequest("/search", 200, 2*time.Millisecond)
	r.ObserveRequest("/search", 400, time.Millisecond)
	r.ObserveRequest("/stats", 500, 100*time.Microsecond)

	requests, errors, panics, shed := r.Snapshot()
	if requests != 4 || errors != 2 || panics != 0 || shed != 0 {
		t.Errorf("snapshot = %d/%d/%d/%d, want 4/2/0/0", requests, errors, panics, shed)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	for _, s := range []float64{0.0005, 0.005, 0.05, 0.5, 0.001} {
		h.observe(s)
	}
	// 0.0005 and 0.001 land in le=0.001 (upper bounds are inclusive via
	// SearchFloat64s semantics: 0.001 → index 0), 0.005 in le=0.01,
	// 0.05 in le=0.1, 0.5 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, n := range h.counts {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d (%v)", i, n, want[i], h.counts)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.ObserveRequest("/search", 200, time.Millisecond)
	r.ObserveRequest("/search", 504, 50*time.Millisecond)
	r.IncPanic()
	r.IncShed()
	r.AddInFlight(3)
	r.SetCacheStats(func() (int64, int64) { return 7, 11 })
	r.SetCacheEvictions(func() (int64, int64) { return 5, 2 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE gks_http_requests_total counter",
		`gks_http_requests_total{endpoint="/search"} 2`,
		`gks_http_errors_total{endpoint="/search",code="504"} 1`,
		"# TYPE gks_http_request_duration_seconds histogram",
		`gks_http_request_duration_seconds_bucket{endpoint="/search",le="0.001"} 1`,
		`gks_http_request_duration_seconds_bucket{endpoint="/search",le="+Inf"} 2`,
		`gks_http_request_duration_seconds_count{endpoint="/search"} 2`,
		"gks_http_panics_total 1",
		"gks_http_load_shed_total 1",
		"gks_http_in_flight 3",
		"gks_cache_hits_total 7",
		"gks_cache_misses_total 11",
		"gks_cache_invalidated_total 5",
		"gks_cache_purges_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.ObserveRequest("/search", 200, time.Duration(i)*time.Millisecond)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	// Cumulative buckets must be non-decreasing line to line.
	last := int64(-1)
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "gks_http_request_duration_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Errorf("cumulative bucket decreased: %q after %d", line, last)
		}
		last = n
	}
	if last != 100 {
		t.Errorf("+Inf bucket = %d, want 100", last)
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.ObserveRequest("/stats", 200, time.Millisecond)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "gks_http_requests_total") {
		t.Errorf("body missing series:\n%s", rec.Body.String())
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.ObserveRequest("/search", 200+(i%2)*300, time.Millisecond)
				r.AddInFlight(1)
				r.AddInFlight(-1)
				if j%10 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(i)
	}
	wg.Wait()
	if requests, _, _, _ := r.Snapshot(); requests != 1600 {
		t.Errorf("requests = %d, want 1600", requests)
	}
}
