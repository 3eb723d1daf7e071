package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gks "repro"
	"repro/internal/obs"
)

// reloadStats reads the reload counters and the generation gauge.
func reloadStats(reg *obs.Registry) (ok, fail, gen float64) {
	return reg.Value("gks_snapshot_reloads_total", "result", "success"),
		reg.Value("gks_snapshot_reloads_total", "result", "failure"),
		reg.Value("gks_snapshot_generation")
}

// metricsText returns the registry's exposition, for assertions on series
// that must be absent (Value panics on those).
func metricsText(reg *obs.Registry) string {
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// snapshotFile persists a freshly indexed document to a snapshot on disk
// and returns the path.
func snapshotFile(t *testing.T, dir, name, student string) string {
	t.Helper()
	doc := gks.BuildDocument(name+".xml", gks.E("Dept",
		gks.ET("Dept_Name", "CS"),
		gks.E("Courses",
			gks.E("Course",
				gks.ET("Name", "Data Mining"),
				gks.E("Students",
					gks.ET("Student", "Karen"),
					gks.ET("Student", student),
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
	))
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".gksidx")
	if err := sys.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReloadUnderTraffic is the end-to-end robustness check for the
// snapshot/reload subsystem, run with the full gksd-shaped middleware
// stack and meant for -race: concurrent /search clients must see zero
// failed requests while the index is hot-swapped underneath them; a
// reload pointed at a corrupt snapshot must roll back and keep the old
// index serving.
func TestReloadUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	pathA := snapshotFile(t, dir, "a", "Mike")
	pathB := snapshotFile(t, dir, "b", "Walter")
	corrupt := filepath.Join(dir, "corrupt.gksidx")
	raw, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), raw...)
	damaged[len(damaged)/2] ^= 0xff
	if err := os.WriteFile(corrupt, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	bootSys, err := gks.LoadIndexFile(pathA)
	if err != nil {
		t.Fatal(err)
	}

	// Assemble the same stack cmd/gksd runs: metrics, recovery, limiter,
	// timeout around the API; reload admin endpoint beside it.
	var loadPath atomic.Value
	loadPath.Store(pathA)
	logger := log.New(io.Discard, "", 0)
	reg := obs.NewRegistry()
	api := NewWithCache(bootSys, 64)
	reg.SetCacheStats(api.CacheStats)
	reg.SetSnapshotGeneration(api.Generation())
	rl := NewReloader(api, func() (gks.Searcher, error) {
		return gks.LoadIndexFile(loadPath.Load().(string))
	}, reg, logger)

	root := http.NewServeMux()
	root.Handle("/", Chain(api,
		WithMetrics(reg),
		WithRecovery(reg, logger),
		WithLimit(128, reg),
		WithTimeout(5*time.Second),
	))
	root.Handle("/admin/reload", Chain(rl.AdminHandler(), WithRecovery(reg, logger)))
	ts := httptest.NewServer(root)
	defer ts.Close()

	// Hammer /search from several clients for the whole test.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests atomic.Int64
	failures := make(chan string, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queries := []string{"/search?q=karen&s=1", "/search?q=karen+julie&s=2", "/search?q=algorithms&s=1"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + queries[i%len(queries)])
				if err != nil {
					select {
					case failures <- err.Error():
					default:
					}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case failures <- fmt.Sprintf("status %d: %s", resp.StatusCode, body):
					default:
					}
					return
				}
				requests.Add(1)
			}
		}(i)
	}

	waitTraffic := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for requests.Load() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	waitTraffic(50)

	// 1. Hot reload A -> B under traffic.
	loadPath.Store(pathB)
	resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var okBody struct {
		Generation int64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&okBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if okBody.Generation != 2 {
		t.Fatalf("generation after reload = %d, want 2", okBody.Generation)
	}
	if ok, fail, gen := reloadStats(reg); ok != 1 || fail != 0 || gen != 2 {
		t.Fatalf("reload metrics after success = ok %v fail %v gen %v", ok, fail, gen)
	}

	// The swap must be visible to new requests: "walter" only exists in B,
	// and the cache must not serve generation-1 entries.
	sr, err := http.Get(ts.URL + "/search?q=walter&s=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || !strings.Contains(string(body), `"total": 1`) {
		t.Fatalf("post-reload search for new snapshot's data: status %d body %s", sr.StatusCode, body)
	}

	waitTraffic(requests.Load() + 50)

	// 2. Reload pointed at a corrupt snapshot: surfaced error, rollback,
	// old generation keeps serving.
	loadPath.Store(corrupt)
	resp, err = http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "corrupt") || !strings.Contains(string(body), "corrupt.gksidx") {
		t.Errorf("corrupt reload error should name the damaged file: %s", body)
	}
	if ok, fail, gen := reloadStats(reg); ok != 1 || fail != 1 || gen != 2 {
		t.Fatalf("reload metrics after failure = ok %v fail %v gen %v", ok, fail, gen)
	}
	if api.Generation() != 2 {
		t.Fatalf("generation moved on failed reload: %d", api.Generation())
	}
	sr, err = http.Get(ts.URL + "/search?q=walter&s=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || !strings.Contains(string(body), `"total": 1`) {
		t.Fatalf("rolled-back server no longer serving generation 2: status %d body %s", sr.StatusCode, body)
	}

	waitTraffic(requests.Load() + 50)
	close(stop)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Errorf("search traffic failed during reload: %s", f)
	}
	if requests.Load() < 150 {
		t.Errorf("only %d successful requests flowed during the test", requests.Load())
	}

	// The Prometheus exposition must carry the reload series.
	exposition := metricsText(reg)
	for _, want := range []string{
		"gks_snapshot_generation 2",
		`gks_snapshot_reloads_total{result="success"} 1`,
		`gks_snapshot_reloads_total{result="failure"} 1`,
		"gks_snapshot_last_reload_timestamp_seconds",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSwapInvalidatesCache pins the cache-coherence contract: a cached
// /search response from one snapshot generation must never be served
// after a Swap to an unrelated system, because Swap purges the cache.
func TestSwapInvalidatesCache(t *testing.T) {
	dir := t.TempDir()
	sysA, err := gks.LoadIndexFile(snapshotFile(t, dir, "a", "Mike"))
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := gks.LoadIndexFile(snapshotFile(t, dir, "b", "Walter"))
	if err != nil {
		t.Fatal(err)
	}

	h := NewWithCache(sysA, 16)
	code, before := get(t, h, "/search?q=mike&s=1")
	if code != 200 || !strings.Contains(before, `"total": 1`) {
		t.Fatalf("pre-swap search: %d %s", code, before)
	}
	// Warm the cache, then swap.
	get(t, h, "/search?q=mike&s=1")
	if gen := h.Swap(sysB); gen != 2 {
		t.Fatalf("Swap generation = %d, want 2", gen)
	}
	code, after := get(t, h, "/search?q=mike&s=1")
	if code != 200 || !strings.Contains(after, `"total": 0`) {
		t.Fatalf("post-swap search served stale data: %d %s", code, after)
	}
	code, walter := get(t, h, "/search?q=walter&s=1")
	if code != 200 || !strings.Contains(walter, `"total": 1`) {
		t.Fatalf("post-swap search on new data: %d %s", code, walter)
	}
}

func TestAdminReloadRequiresPOST(t *testing.T) {
	h := testHandler(t)
	rl := NewReloader(h, func() (gks.Searcher, error) {
		t.Fatal("reload must not run for non-POST")
		return nil, nil
	}, nil, nil)
	req := httptest.NewRequest("GET", "/admin/reload", nil)
	rec := httptest.NewRecorder()
	rl.AdminHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload = %d, want 405", rec.Code)
	}
	if rec.Header().Get("Allow") != "POST" {
		t.Errorf("Allow header = %q", rec.Header().Get("Allow"))
	}
}

// TestReloadValidationRejectsDamagedSystem covers the second line of
// defense: a snapshot that decodes (checksum intact) but violates
// structural invariants must be rejected before the swap.
func TestReloadValidationRejectsDamagedSystem(t *testing.T) {
	h := testHandler(t)
	rl := NewReloader(h, func() (gks.Searcher, error) {
		return nil, errors.New("load failed deliberately")
	}, nil, nil)
	gen, err := rl.Reload()
	if err == nil {
		t.Fatal("reload succeeded with failing loader")
	}
	if gen != 1 || h.Generation() != 1 {
		t.Fatalf("generation moved on failed reload: returned %d, serving %d", gen, h.Generation())
	}
}
