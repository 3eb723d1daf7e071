package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gks "repro"
	"repro/internal/obs"
)

// ingestStack assembles the full mutation stack the daemon wires up: an
// API handler, a reloader re-reading the snapshot path, and an ingester
// persisting every mutation to that same path.
func ingestStack(t *testing.T, path string) (*Handler, *Reloader, *Ingester, *obs.Registry) {
	t.Helper()
	sys := testSystem(t)
	if err := sys.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	h := NewWithCache(sys, 16)
	reg := obs.NewRegistry()
	rl := NewReloader(h, func() (gks.Searcher, error) { return gks.LoadIndexFile(path) }, reg, nil)
	persist := func(next gks.Searcher) error {
		single, ok := next.(*gks.System)
		if !ok {
			return fmt.Errorf("not a single-index system: %T", next)
		}
		return single.SaveIndexFile(path)
	}
	return h, rl, NewIngester(rl, persist, reg, nil), reg
}

func adminReq(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func docBody(name string, words ...string) string {
	src := "<root>"
	for _, w := range words {
		src += "<item>" + w + "</item>"
	}
	src += "</root>"
	b, _ := json.Marshal(map[string]string{"name": name, "xml": src})
	return string(b)
}

func searchTotal(t *testing.T, h *Handler, q string) int {
	t.Helper()
	code, body := get(t, h, "/search?q="+q+"&s=1")
	if code != 200 {
		t.Fatalf("search %q: status %d: %s", q, code, body)
	}
	var out struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	return out.Total
}

// TestIngestLifecycle drives add → search → replace → search → delete →
// search → reload through the HTTP surface, checking after every step that
// the serving system AND the persisted snapshot agree.
func TestIngestLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gksidx")
	h, rl, ing, _ := ingestStack(t, path)
	hnd := ing.Handler()
	genBefore := h.Generation()

	// Add: searchable immediately, acknowledged as persisted.
	code, body := adminReq(t, hnd, "POST", "/admin/docs", docBody("p.xml", "neutrino", "quark"))
	if code != 200 {
		t.Fatalf("add: status %d: %s", code, body)
	}
	var ack struct {
		Op        string `json:"op"`
		Name      string `json:"name"`
		Documents int    `json:"documents"`
		Persisted bool   `json:"persisted"`
	}
	if err := json.Unmarshal([]byte(body), &ack); err != nil {
		t.Fatalf("bad ack: %v\n%s", err, body)
	}
	if ack.Op != "add" || ack.Name != "p.xml" || ack.Documents != 2 || !ack.Persisted {
		t.Fatalf("ack = %+v", ack)
	}
	if h.Generation() != genBefore+1 {
		t.Fatalf("generation = %d, want %d", h.Generation(), genBefore+1)
	}
	if n := searchTotal(t, h, "neutrino"); n == 0 {
		t.Fatal("added document not searchable")
	}

	// Replace: same name, new content.
	code, body = adminReq(t, hnd, "POST", "/admin/docs", docBody("p.xml", "gluon", "quark"))
	if code != 200 {
		t.Fatalf("replace: status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ack); err != nil || ack.Op != "replace" || ack.Documents != 2 {
		t.Fatalf("replace ack = %+v (err %v): %s", ack, err, body)
	}
	if searchTotal(t, h, "neutrino") != 0 || searchTotal(t, h, "gluon") == 0 {
		t.Fatal("replace did not swap the document content")
	}

	// The mutation survives a reload: what reload reads is what ingest wrote.
	if _, err := rl.Reload(); err != nil {
		t.Fatal(err)
	}
	if searchTotal(t, h, "gluon") == 0 {
		t.Fatal("persisted mutation lost across reload")
	}

	// Delete: gone from serving and from the snapshot.
	code, body = adminReq(t, hnd, "DELETE", "/admin/docs/p.xml", "")
	if code != 200 {
		t.Fatalf("delete: status %d: %s", code, body)
	}
	if searchTotal(t, h, "gluon") != 0 {
		t.Fatal("deleted document still searchable")
	}
	if _, err := rl.Reload(); err != nil {
		t.Fatal(err)
	}
	if searchTotal(t, h, "gluon") != 0 {
		t.Fatal("delete was not persisted")
	}
	// The original corpus still serves.
	if searchTotal(t, h, "karen") == 0 {
		t.Fatal("original document lost")
	}
}

// TestIngestShardManifest runs the same lifecycle against a sharded system
// persisted through its GKSM1 manifest.
func TestIngestShardManifest(t *testing.T) {
	mk := func(name, word string) *gks.Document {
		return gks.BuildDocument(name, gks.E("root",
			gks.ET("item", word), gks.ET("item", "shared")))
	}
	set, err := gks.IndexDocumentsSharded(2, mk("a.xml", "alpha"), mk("b.xml", "beta"), mk("c.xml", "gamma"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.gksm")
	if err := set.SaveManifest(path); err != nil {
		t.Fatal(err)
	}
	sys, err := gks.LoadShardSet(path)
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithCache(sys, 16)
	reg := obs.NewRegistry()
	rl := NewReloader(h, func() (gks.Searcher, error) { return gks.LoadShardSet(path) }, reg, nil)
	ing := NewIngester(rl, func(next gks.Searcher) error {
		return next.(*gks.ShardedSystem).SaveManifest(path)
	}, reg, nil)
	hnd := ing.Handler()

	if code, body := adminReq(t, hnd, "POST", "/admin/docs", docBody("d.xml", "delta", "shared")); code != 200 {
		t.Fatalf("add: status %d: %s", code, body)
	}
	if searchTotal(t, h, "delta") == 0 {
		t.Fatal("added document not searchable on the sharded system")
	}
	if _, err := rl.Reload(); err != nil {
		t.Fatal(err)
	}
	if searchTotal(t, h, "delta") == 0 {
		t.Fatal("sharded mutation lost across manifest reload")
	}
	if code, body := adminReq(t, hnd, "DELETE", "/admin/docs/a.xml", ""); code != 200 {
		t.Fatalf("delete: status %d: %s", code, body)
	}
	if searchTotal(t, h, "alpha") != 0 {
		t.Fatal("deleted document still searchable")
	}
	if _, err := rl.Reload(); err != nil {
		t.Fatal(err)
	}
	if searchTotal(t, h, "alpha") != 0 || searchTotal(t, h, "delta") == 0 {
		t.Fatal("manifest does not reflect the mutation history")
	}
}

// TestIngestPersistFailure: when the snapshot write fails, the mutation
// must NOT serve — acknowledge-after-persist is the durability contract.
func TestIngestPersistFailure(t *testing.T) {
	sys := testSystem(t)
	h := New(sys)
	reg := obs.NewRegistry()
	rl := NewReloader(h, func() (gks.Searcher, error) { return sys, nil }, reg, nil)
	ing := NewIngester(rl, func(gks.Searcher) error {
		return fmt.Errorf("disk full")
	}, reg, nil)
	genBefore := h.Generation()

	code, body := adminReq(t, ing.Handler(), "POST", "/admin/docs", docBody("p.xml", "neutrino"))
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, body)
	}
	if h.Generation() != genBefore {
		t.Fatal("failed persist still swapped the system")
	}
	if searchTotal(t, h, "neutrino") != 0 {
		t.Fatal("unpersisted document is serving")
	}
	ok := reg.Value("gks_ingest_total", "op", "upsert", "result", "success")
	fail := reg.Value("gks_ingest_total", "op", "upsert", "result", "failure")
	if ok != 0 || fail != 1 {
		t.Fatalf("upsert counters ok=%v fail=%v, want 0/1", ok, fail)
	}
	if out := metricsText(reg); strings.Contains(out, `gks_ingest_total{op="delete"`) {
		t.Fatalf("a delete was counted though none was sent:\n%s", out)
	}
}

func TestIngestRequestValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gksidx")
	h, _, ing, _ := ingestStack(t, path)
	hnd := ing.Handler()
	genBefore := h.Generation()

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"get on collection", "GET", "/admin/docs", "", 405},
		{"post on item", "POST", "/admin/docs/x.xml", "{}", 405},
		{"malformed json", "POST", "/admin/docs", "{not json", 400},
		{"unknown field", "POST", "/admin/docs", `{"name":"a","xml":"<r/>","evil":1}`, 400},
		{"trailing garbage", "POST", "/admin/docs", `{"name":"a","xml":"<r><i>x</i></r>"} extra`, 400},
		{"empty name", "POST", "/admin/docs", `{"name":"  ","xml":"<r><i>x</i></r>"}`, 400},
		{"control char name", "POST", "/admin/docs", `{"name":"a\nb","xml":"<r><i>x</i></r>"}`, 400},
		{"empty xml", "POST", "/admin/docs", `{"name":"a.xml","xml":""}`, 400},
		{"unparsable xml", "POST", "/admin/docs", `{"name":"a.xml","xml":"<open"}`, 400},
		{"delete missing", "DELETE", "/admin/docs/nosuch.xml", "", 404},
		{"delete last", "DELETE", "/admin/docs/uni.xml", "", 409},
	}
	for _, tc := range cases {
		if code, body := adminReq(t, hnd, tc.method, tc.path, tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, code, tc.want, body)
		}
	}
	// Oversized bodies are rejected before parsing.
	ing.maxBody = 64
	if code, _ := adminReq(t, hnd, "POST", "/admin/docs", docBody("big.xml", "padpadpadpadpadpadpadpadpadpad")); code != http.StatusRequestEntityTooLarge {
		t.Error("oversized body not rejected with 413")
	}
	if h.Generation() != genBefore {
		t.Fatal("a rejected request mutated serving state")
	}
}

func TestIngestMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gksidx")
	_, _, ing, reg := ingestStack(t, path)
	hnd := ing.Handler()

	adminReq(t, hnd, "POST", "/admin/docs", docBody("m.xml", "muon"))
	adminReq(t, hnd, "DELETE", "/admin/docs/m.xml", "")
	adminReq(t, hnd, "DELETE", "/admin/docs/m.xml", "") // 404 → failure

	ok := reg.Value("gks_ingest_total", "op", "upsert", "result", "success") +
		reg.Value("gks_ingest_total", "op", "delete", "result", "success")
	fail := reg.Value("gks_ingest_total", "op", "upsert", "result", "failure") +
		reg.Value("gks_ingest_total", "op", "delete", "result", "failure")
	if docs := reg.Value("gks_docs"); ok != 2 || fail != 1 || docs != 1 {
		t.Fatalf("ingest stats ok=%v fail=%v docs=%v, want 2/1/1", ok, fail, docs)
	}
	out := metricsText(reg)
	for _, want := range []string{
		`gks_ingest_total{op="upsert",result="success"} 1`,
		`gks_ingest_total{op="delete",result="success"} 1`,
		`gks_ingest_total{op="delete",result="failure"} 1`,
		"gks_docs 1",
		"gks_ingest_duration_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestIngestUnderTraffic races search traffic against a stream of HTTP
// mutations (run with -race): every search must answer 200 on a complete,
// consistent snapshot — zero failed requests.
func TestIngestUnderTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gksidx")
	h, _, ing, _ := ingestStack(t, path)
	hnd := ing.Handler()

	stop := make(chan struct{})
	var searches, failures atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := []string{"/search?q=karen&s=1", "/search?q=neutrino&s=1", "/stats"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", queries[(i+r)%len(queries)], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					failures.Add(1)
					t.Errorf("search under mutation: status %d: %s", rec.Code, rec.Body.String())
					return
				}
				searches.Add(1)
			}
		}(r)
	}

	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("t-%d.xml", i%5)
		if i%3 == 2 {
			code, body := adminReq(t, hnd, "DELETE", "/admin/docs/"+name, "")
			if code != 200 && code != 404 {
				t.Fatalf("delete %s: status %d: %s", name, code, body)
			}
		} else {
			if code, body := adminReq(t, hnd, "POST", "/admin/docs", docBody(name, "neutrino", fmt.Sprintf("w%d", i))); code != 200 {
				t.Fatalf("upsert %s: status %d: %s", name, code, body)
			}
		}
		runtime.Gosched()
	}
	for deadline := time.Now().Add(5 * time.Second); searches.Load() < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if searches.Load() == 0 || failures.Load() != 0 {
		t.Fatalf("searches=%d failures=%d", searches.Load(), failures.Load())
	}
}

// TestInsightsRefineCarryPartialFlag: /insights and /refine used to drop
// Response.Partial entirely — a degraded scatter-gather looked complete.
func TestInsightsRefineCarryPartialFlag(t *testing.T) {
	ps := &partialSearcher{Searcher: testSystem(t)}
	ps.degraded.Store(true)
	h := New(ps)
	for _, path := range []string{"/insights?q=karen&s=1", "/refine?q=karen&s=1"} {
		code, body := get(t, h, path)
		if code != 200 {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		var out struct {
			Partial *bool `json:"partial"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", path, err, body)
		}
		if out.Partial == nil || !*out.Partial {
			t.Fatalf("%s: degraded response not flagged partial: %s", path, body)
		}
	}
	ps.degraded.Store(false)
	for _, path := range []string{"/insights?q=karen&s=1", "/refine?q=karen&s=1"} {
		_, body := get(t, h, path)
		var out struct {
			Partial *bool `json:"partial"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", path, err, body)
		}
		if out.Partial == nil || *out.Partial {
			t.Fatalf("%s: complete response mis-flagged: %s", path, body)
		}
	}
}

// FuzzAdminDocs guards the admin parser: arbitrary bytes must never panic
// it, and anything it accepts must satisfy the documented invariants.
func FuzzAdminDocs(f *testing.F) {
	f.Add([]byte(`{"name":"a.xml","xml":"<r><i>x</i></r>"}`))
	f.Add([]byte(`{"name":"","xml":""}`))
	f.Add([]byte("{\"name\":\"a\x00b\",\"xml\":\"<r/>\"}"))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"name":"a","xml":"<r/>","extra":1}`))
	f.Add([]byte(`{"name":"a","xml":"<r/>"} trailing`))
	f.Add([]byte(`{"name":"` + strings.Repeat("n", 600) + `","xml":"<r/>"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		name, src, err := parseDocRequest(body)
		if err != nil {
			if name != "" || src != "" {
				t.Fatalf("error %v returned non-empty name/src %q/%q", err, name, src)
			}
			return
		}
		if strings.TrimSpace(name) == "" || len(name) > 512 ||
			strings.ContainsAny(name, "\x00\n\r") {
			t.Fatalf("accepted invalid name %q", name)
		}
		if strings.TrimSpace(src) == "" {
			t.Fatal("accepted empty xml")
		}
	})
}
