package server

import (
	"fmt"
	"path/filepath"
	"testing"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// TestCheckpointRepack exercises pack maintenance: live replacements on a
// serving system tombstone the old rows and accrue pack debt; once the
// debt crosses the configured threshold, the next checkpoint compacts the
// tombstones away, swaps the result into service, zeroes the bloat gauge,
// and keeps every acknowledged document searchable.
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

	// Each name is added, then replaced: the replacement tombstones the
	// added rows.
	for i := 0; i < 8; i++ {
		code, body := adminReq(t, hnd, "POST", "/admin/docs",
			docBody(fmt.Sprintf("d%d.xml", i%4), "neutrino", "gluon"))
		if code != 200 {
			t.Fatalf("upsert %d: status %d: %s", i, code, body)
		}
	}
	if debt := h.Searcher().PackDebt(); debt == 0 {
		t.Fatal("replacements accrued no pack debt")
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
		t.Fatal("appended documents lost across repack")
	}
	if n := searchTotal(t, h, "Karen"); n == 0 {
		t.Fatal("base document lost across repack")
	}

	// Below the threshold nothing repacks: raise it, replace one more
	// document, checkpoint again — counter must not move, and the gauge
	// must publish the (small, nonzero) outstanding debt.
	cp.EnableRepack(0.99)
	if code, body := adminReq(t, hnd, "POST", "/admin/docs",
		docBody("d0.xml", "tachyon", "axion")); code != 200 {
		t.Fatalf("replace d0: status %d: %s", code, body)
	}
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	total, bloat = reg.Value("gks_repack_total"), reg.Value("gks_pack_bloat_ratio")
	if total != 1 {
		t.Fatalf("repacks after sub-threshold checkpoint = %v, want still 1", total)
	}
	if bloat == 0 {
		t.Error("bloat gauge = 0 with an outstanding replacement, want > 0")
	}
	if n := searchTotal(t, h, "tachyon"); n == 0 {
		t.Fatal("post-repack replacement not searchable")
	}
}
