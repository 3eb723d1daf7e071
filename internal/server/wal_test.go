package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// walStack assembles the WAL-mode mutation stack gksd wires up: handler,
// reloader, WAL-enabled ingester, and a checkpointer triggered every
// `every` durable mutations. persists counts snapshot writes so tests can
// assert the hot path stopped paying for them.
func walStack(t *testing.T, dir string, every int) (*Handler, *Ingester, *Checkpointer, *wal.Log, *obs.Registry, *atomic.Int64) {
	t.Helper()
	path := filepath.Join(dir, "live.gksidx")
	sys := testSystem(t)
	if err := sys.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	h := NewWithCache(sys, 16)
	reg := obs.NewRegistry()
	rl := NewReloader(h, func() (gks.Searcher, error) { return gks.LoadIndexFile(path) }, reg, nil)
	var persists atomic.Int64
	persist := func(next gks.Searcher) error {
		single, ok := next.(*gks.System)
		if !ok {
			return fmt.Errorf("not a single-index system: %T", next)
		}
		persists.Add(1)
		return single.SaveIndexFile(path)
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ing := NewIngester(rl, persist, reg, nil)
	cp := NewCheckpointer(rl, l, persist, every, reg, nil)
	ing.EnableWAL(l, cp.Notify)
	return h, ing, cp, l, reg, &persists
}

// TestIngestWALMode checks the new durability contract end to end:
// mutations acknowledge with an lsn and persisted=true WITHOUT rewriting
// the snapshot, the checkpointer folds the log after the configured number
// of mutations, and a recovery (snapshot + log replay) reproduces the
// acknowledged state.
func TestIngestWALMode(t *testing.T) {
	dir := t.TempDir()
	h, ing, cp, l, reg, persists := walStack(t, dir, 3)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); cp.Run(ctx) }()
	hnd := ing.Handler()

	code, body := adminReq(t, hnd, "POST", "/admin/docs", docBody("w1.xml", "neutrino", "quark"))
	if code != 200 {
		t.Fatalf("add: status %d: %s", code, body)
	}
	var ack struct {
		LSN       uint64 `json:"lsn"`
		Persisted bool   `json:"persisted"`
	}
	if err := json.Unmarshal([]byte(body), &ack); err != nil {
		t.Fatalf("bad ack: %v\n%s", err, body)
	}
	if ack.LSN != 1 || !ack.Persisted {
		t.Fatalf("ack = %+v, want lsn 1 persisted", ack)
	}
	if n := persists.Load(); n != 0 {
		t.Fatalf("first mutation rewrote the snapshot %d time(s); WAL mode must not", n)
	}
	if n := searchTotal(t, h, "neutrino"); n == 0 {
		t.Fatal("added document not searchable")
	}
	fsyncs, segs, bytes := reg.Value("gks_wal_fsync_duration_seconds"), reg.Value("gks_wal_segments"), reg.Value("gks_wal_size_bytes")
	if fsyncs == 0 || segs == 0 || bytes == 0 {
		t.Fatalf("wal metrics not reporting: fsyncs=%v segments=%v bytes=%v", fsyncs, segs, bytes)
	}

	// Two more durable mutations cross the every=3 threshold.
	for i := 2; i <= 3; i++ {
		if code, body := adminReq(t, hnd, "POST", "/admin/docs", docBody(fmt.Sprintf("w%d.xml", i), "quark")); code != 200 {
			t.Fatalf("add %d: status %d: %s", i, code, body)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.Value("gks_wal_checkpoints_total", "result", "success") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpointer never fired after threshold mutations")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if persists.Load() == 0 {
		t.Fatal("checkpoint reported success without persisting")
	}
	cancel()
	<-done

	// Recovery: snapshot + surviving log tail reproduce the served state.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	loaded, err := gks.LoadIndexFile(filepath.Join(dir, "live.gksidx"))
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, err := gks.ReplayWAL(loaded, l2)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := h.Searcher().Stats().Documents, recovered.Stats().Documents; got != want {
		t.Fatalf("recovered %d documents, serving %d", got, want)
	}
}

// TestIngestWALAppendFailureKeepsGauges is the regression test for the
// failed-append audit: when the log rejects an append, the serving state
// must be completely untouched — no generation bump, no gks_docs gauge
// movement — and the 500 must name the generation actually still serving.
func TestIngestWALAppendFailureKeepsGauges(t *testing.T) {
	dir := t.TempDir()
	h, ing, _, l, reg, persists := walStack(t, dir, 0)
	hnd := ing.Handler()

	if code, _ := adminReq(t, hnd, "POST", "/admin/docs", docBody("ok.xml", "boson")); code != 200 {
		t.Fatal("healthy mutation failed")
	}
	genBefore := h.Generation()
	docsBefore := reg.Value("gks_docs")
	docCountBefore := h.Searcher().Stats().Documents

	// Close the log out from under the ingester: every append now fails.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	code, body := adminReq(t, hnd, "POST", "/admin/docs", docBody("bad.xml", "tachyon"))
	if code != http.StatusInternalServerError {
		t.Fatalf("append failure: status %d, want 500: %s", code, body)
	}
	if want := fmt.Sprintf("still serving generation %d", genBefore); !strings.Contains(body, want) {
		t.Fatalf("error %q does not name the serving generation (%q)", body, want)
	}
	if h.Generation() != genBefore {
		t.Fatalf("generation moved to %d on failed append", h.Generation())
	}
	if docs := reg.Value("gks_docs"); docs != docsBefore {
		t.Fatalf("gks_docs gauge moved to %v on failed append (was %v)", docs, docsBefore)
	}
	if got := h.Searcher().Stats().Documents; got != docCountBefore {
		t.Fatalf("serving system mutated on failed append: %d docs, was %d", got, docCountBefore)
	}
	if n := searchTotal(t, h, "tachyon"); n != 0 {
		t.Fatal("rejected document is searchable")
	}
	// A delete against the wedged log fails the same contract.
	code, body = adminReq(t, hnd, "DELETE", "/admin/docs/ok.xml", "")
	if code != http.StatusInternalServerError || !strings.Contains(body, "still serving generation") {
		t.Fatalf("delete on wedged log: status %d: %s", code, body)
	}
	if persists.Load() != 0 {
		t.Fatal("WAL mode called the per-mutation persist path")
	}
}

// TestIngestWALConcurrentWriters hammers the mutation surface from many
// goroutines — the scenario group commit exists for — and checks every
// acknowledged write is in the log, the serving state, and recoverable.
// Run under -race via the wal-smoke make target.
func TestIngestWALConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	h, ing, _, l, reg, _ := walStack(t, dir, 0)
	hnd := ing.Handler()

	const writers, opsEach = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for op := 0; op < opsEach; op++ {
				name := fmt.Sprintf("c%d-%d.xml", wtr, op)
				code, body := adminReq(t, hnd, "POST", "/admin/docs", docBody(name, "lepton", "muon"))
				if code != 200 {
					errs <- fmt.Errorf("%s: status %d: %s", name, code, body)
					return
				}
			}
		}(wtr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != writers*opsEach {
		t.Fatalf("log holds %d records, want %d", got, writers*opsEach)
	}
	if got := l.DurableLSN(); got != writers*opsEach {
		t.Fatalf("durable through %d, want %d (all were acknowledged)", got, writers*opsEach)
	}
	okN := reg.Value("gks_ingest_total", "op", "upsert", "result", "success")
	failN := reg.Value("gks_ingest_total", "op", "upsert", "result", "failure")
	if okN != writers*opsEach || failN != 0 {
		t.Fatalf("ingest counters ok=%v fail=%v, want %d/0", okN, failN, writers*opsEach)
	}
	if n := searchTotal(t, h, "lepton"); n == 0 {
		t.Fatal("concurrent writes not searchable")
	}
}
