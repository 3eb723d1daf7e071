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

	for _, c := range []struct {
		want   float64
		name   string
		labels []string
	}{
		{3, "gks_http_requests_total", []string{"endpoint", "/search"}},
		{1, "gks_http_requests_total", []string{"endpoint", "/stats"}},
		{1, "gks_http_errors_total", []string{"endpoint", "/search", "code", "400"}},
		{1, "gks_http_errors_total", []string{"endpoint", "/stats", "code", "500"}},
		{3, "gks_http_request_duration_seconds", []string{"endpoint", "/search"}},
		{0, "gks_http_panics_total", nil},
		{0, "gks_http_load_shed_total", nil},
	} {
		if got := r.Value(c.name, c.labels...); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if n := strings.Count(b.String(), "\ngks_http_errors_total{"); n != 2 {
		t.Errorf("%d error series, want 2 (a 200 is not an error):\n%s", n, b.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := &Registry{byName: make(map[string]*family)}
	r.declare(nil, histogram, "h", "", []float64{0.001, 0.01, 0.1})
	h := r.at("h")
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
	if got := r.Value("h"); got != 5 {
		t.Errorf("count = %v, want 5", got)
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
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
}

// TestRegistryConcurrency hammers every kind of metric (counter, gauge set,
// gauge add, monotone gauge, float gauge, histogram; unlabelled, one label,
// two labels; a callback) from 16 goroutines while others scrape; run it
// under -race.
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
				r.SetDocs(j)
				r.SetReplicaLSNs(uint64(i*100+j), uint64(j))
				r.SetPackBloat(float64(j) / 100)
				r.ObserveIngest([]string{"upsert", "delete"}[j%2], j%3 != 0, time.Millisecond)
				r.ObserveShardSearch(i%4, time.Millisecond)
				r.ObserveSearchStage("merge", 0.001)
				r.ObserveWALFsync(j, time.Millisecond)
				r.BlockCacheHit()
				if j%10 == 0 {
					r.SetCacheStats(func() (int64, int64) { return int64(i), int64(j) })
					var sb strings.Builder
					r.WritePrometheus(&sb)
					if got := r.Value("gks_http_in_flight"); got < 0 || got > 16 {
						t.Errorf("in-flight gauge read %v mid-run", got)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, c := range []struct {
		want   float64
		name   string
		labels []string
	}{
		{1600, "gks_http_requests_total", []string{"endpoint", "/search"}},
		{800, "gks_http_errors_total", []string{"endpoint", "/search", "code", "500"}},
		{1600, "gks_http_request_duration_seconds", []string{"endpoint", "/search"}},
		{0, "gks_http_in_flight", nil},
		{1599, "gks_replica_applied_lsn", nil},
		{99, "gks_replica_leader_durable_lsn", nil},
		{0, "gks_replica_lag_records", nil},
		{528, "gks_ingest_total", []string{"op", "upsert", "result", "success"}},
		{528, "gks_ingest_total", []string{"op", "delete", "result", "success"}},
		{272, "gks_ingest_total", []string{"op", "delete", "result", "failure"}},
		{400, "gks_shard_search_duration_seconds", []string{"shard", "3"}},
		{1600, "gks_search_stage_seconds", []string{"stage", "merge"}},
		{1600, "gks_wal_fsync_batch_records", nil},
		{1600, "gks_segment_block_cache_hits_total", nil},
	} {
		if got := r.Value(c.name, c.labels...); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
}

// blockingWriter parks every Write until release is closed and announces the
// first one on entered.
type blockingWriter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestStalledScraperDoesNotBlockObservers: a /metrics client that stops
// reading must not stall the request path. The exposition used to be written
// to the client while holding the registry's one mutex, which every request
// (WithMetrics), every search stage and every posting-block cache hit takes.
func TestStalledScraperDoesNotBlockObservers(t *testing.T) {
	r := NewRegistry()
	r.ObserveRequest("/search", 200, time.Millisecond)
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		r.WritePrometheus(w)
	}()
	<-w.entered // the scraper now sits in Write

	observed := make(chan struct{})
	go func() {
		defer close(observed)
		r.ObserveRequest("/search", 200, time.Millisecond)
		r.BlockCacheHit()
		r.ObserveSearchStage("merge", 0.001)
	}()
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Error("observers are stuck behind a /metrics reader that stopped reading")
	}
	close(w.release)
	<-scraped
	<-observed
}

// TestNilRegistryRecordsNothing: every recording method accepts a nil
// receiver, which is what lets the server drop its `if reg != nil` guards.
func TestNilRegistryRecordsNothing(t *testing.T) {
	var r *Registry
	r.ObserveRequest("/search", 500, time.Millisecond)
	r.IncPanic()
	r.AddInFlight(1)
	r.SetDocs(3)
	r.ObserveReload(true, 2)
	r.ObserveIngest("upsert", false, time.Millisecond)
	r.ObserveCheckpoint(true, 1, time.Millisecond)
	r.ObserveRepack(time.Millisecond)
	r.SetPackBloat(0.5)
	r.SetReplicaRole("leader")
	r.SetReplicaLSNs(4, 9)
	r.ObserveBlockFetch(time.Millisecond)
	r.ObserveWALFsync(2, time.Millisecond)
	r.ObserveSearchStage("rank", 0.1)
	r.ObserveSLSize(7)
	r.SetCacheStats(func() (int64, int64) { return 1, 2 })
}
