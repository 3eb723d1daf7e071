package server

import (
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

// manifestFile builds a sharded index over several departments and
// persists it as a GKSM1 manifest plus shard snapshots, returning the
// manifest path. The student name distinguishes generations in searches.
func manifestFile(t *testing.T, dir, name, student string, shards int) string {
	t.Helper()
	docs := make([]*gks.Document, 4)
	for i := range docs {
		docs[i] = gks.BuildDocument(fmt.Sprintf("%s-dept%d.xml", name, i), gks.E("Dept",
			gks.ET("Dept_Name", fmt.Sprintf("Dept%d", i)),
			gks.E("Courses",
				gks.E("Course",
					gks.ET("Name", "Data Mining"),
					gks.E("Students",
						gks.ET("Student", "Karen"),
						gks.ET("Student", student),
					),
				),
			),
		))
	}
	set, err := gks.IndexDocumentsSharded(shards, docs...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".gksm")
	if err := set.SaveManifest(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardSetReloadUnderTraffic is the sharded counterpart of
// TestReloadUnderTraffic, meant for -race: a whole shard set hot-swaps
// under concurrent search traffic with zero failed requests, and a set
// with ONE corrupt shard file rolls back as a unit — the server never
// serves a mixed-generation or partial set.
func TestShardSetReloadUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	pathA := manifestFile(t, dir, "a", "Mike", 3)
	pathB := manifestFile(t, dir, "b", "Walter", 3)
	// Generation C: a full copy of B with a single bit flipped in one
	// shard snapshot. The manifest itself is intact — only the per-shard
	// CRC check can catch this, and it must fail the whole set.
	pathC := manifestFile(t, dir, "c", "Xavier", 3)
	// Shard file names embed the manifest generation; glob rather than
	// hard-code it.
	matches, err := filepath.Glob(filepath.Join(dir, "c.gksm.g*.s001"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("locating shard file c.gksm.g*.s001: matches=%v err=%v", matches, err)
	}
	corruptShard := matches[0]
	raw, err := os.ReadFile(corruptShard)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(corruptShard, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	bootSys, err := gks.LoadShardSet(pathA)
	if err != nil {
		t.Fatal(err)
	}

	var loadPath atomic.Value
	loadPath.Store(pathA)
	logger := log.New(io.Discard, "", 0)
	reg := obs.NewRegistry()
	api := NewWithCache(bootSys, 64)
	reg.SetCacheStats(api.CacheStats)
	reg.SetSnapshotGeneration(api.Generation())
	rl := NewReloader(api, func() (gks.Searcher, error) {
		set, err := gks.LoadShardSet(loadPath.Load().(string))
		if err != nil {
			return nil, err
		}
		set.SetMetrics(reg)
		reg.SetShardCount(set.NumShards())
		return set, nil
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests atomic.Int64
	failures := make(chan string, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queries := []string{"/search?q=karen&s=1", "/search?q=karen+mining&s=2", "/search?q=dept2&s=1"}
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

	// 1. Hot swap shard set A -> B under traffic.
	loadPath.Store(pathB)
	resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	sr, err := http.Get(ts.URL + "/search?q=walter&s=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	// Walter appears once per department document in generation B.
	if sr.StatusCode != http.StatusOK || !strings.Contains(string(body), `"total": 4`) {
		t.Fatalf("post-reload search for new set's data: status %d body %s", sr.StatusCode, body)
	}

	waitTraffic(requests.Load() + 50)

	// 2. Reload pointed at the set with one corrupt shard: the whole set
	// is rejected, the old one keeps serving.
	loadPath.Store(pathC)
	resp, err = http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), filepath.Base(corruptShard)) {
		t.Errorf("corrupt reload error should name the damaged shard file: %s", body)
	}
	if api.Generation() != 2 {
		t.Fatalf("generation moved on failed shard-set reload: %d", api.Generation())
	}
	sr, err = http.Get(ts.URL + "/search?q=walter&s=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || !strings.Contains(string(body), `"total": 4`) {
		t.Fatalf("rolled-back server no longer serving set B: status %d body %s", sr.StatusCode, body)
	}
	if _, fail, _ := reloadStats(reg); fail != 1 {
		t.Fatalf("failure reload counter = %v, want 1", fail)
	}

	waitTraffic(requests.Load() + 50)
	close(stop)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Errorf("search traffic failed during shard-set reload: %s", f)
	}

	// The exposition carries the shard series for the live set.
	if exposition := metricsText(reg); !strings.Contains(exposition, "gks_shard_count 3") {
		t.Errorf("metrics missing gks_shard_count 3:\n%s", exposition)
	}
}
