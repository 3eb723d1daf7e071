package server

import (
	"fmt"
	"path/filepath"
	"testing"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// TestCheckpointRepack exercises the pack-maintenance half of the delta
// append design: live upserts on a packed serving system take the
// incremental path and accrue pack debt; once the debt crosses the
// configured threshold, the next checkpoint rebuilds the canonical pack,
// swaps it into service, zeroes the bloat gauge, and keeps every
// acknowledged document searchable.
func TestCheckpointRepack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.gksidx")
	sys := testSystem(t).Packed()
	if err := sys.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	h := NewWithCache(sys, 16)
	reg := obs.NewRegistry()
	rl := NewReloader(h, func() (gks.Searcher, error) { return gks.LoadIndexFile(path) }, reg, nil)
	persist := func(next gks.Searcher) error {
		return next.(*gks.System).SaveIndexFile(path)
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ing := NewIngester(rl, persist, reg, nil)
	cp := NewCheckpointer(rl, l, persist, 0, reg, nil) // explicit checkpoints only
	cp.EnableRepack(0.05)
	ing.EnableWAL(l, cp.Notify)
	hnd := ing.Handler()

	for i := 0; i < 4; i++ {
		code, body := adminReq(t, hnd, "POST", "/admin/docs",
			docBody(fmt.Sprintf("d%d.xml", i), "neutrino", "gluon"))
		if code != 200 {
			t.Fatalf("add %d: status %d: %s", i, code, body)
		}
	}
	// Debt > 0 proves the upserts went through the delta path on a still-
	// packed table (a full pack leaves debt 0).
	if debt := h.Searcher().PackDebt(); debt == 0 {
		t.Fatal("upserts on the packed base accrued no pack debt; delta path not engaged")
	}

	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	total, bloat := reg.Value("gks_repack_total"), reg.Value("gks_pack_bloat_ratio")
	if total != 1 {
		t.Fatalf("repacks after threshold crossing = %v, want 1", total)
	}
	if bloat != 0 {
		t.Errorf("post-repack bloat gauge = %v, want 0", bloat)
	}
	if debt := h.Searcher().PackDebt(); debt != 0 {
		t.Errorf("serving system still carries pack debt %v after repack", debt)
	}
	if n := searchTotal(t, h, "neutrino"); n == 0 {
		t.Fatal("delta-appended documents lost across repack")
	}
	if n := searchTotal(t, h, "Karen"); n == 0 {
		t.Fatal("base document lost across repack")
	}

	// Below the threshold nothing repacks: raise it, add one more
	// document, checkpoint again — counter must not move, and the gauge
	// must publish the (small, nonzero) outstanding debt.
	cp.EnableRepack(0.99)
	if code, body := adminReq(t, hnd, "POST", "/admin/docs",
		docBody("d9.xml", "tachyon", "axion")); code != 200 {
		t.Fatalf("add d9: status %d: %s", code, body)
	}
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	total, bloat = reg.Value("gks_repack_total"), reg.Value("gks_pack_bloat_ratio")
	if total != 1 {
		t.Fatalf("repacks after sub-threshold checkpoint = %v, want still 1", total)
	}
	if bloat == 0 {
		t.Error("bloat gauge = 0 with an outstanding delta append, want > 0")
	}
	if n := searchTotal(t, h, "tachyon"); n == 0 {
		t.Fatal("post-repack delta append not searchable")
	}
}
