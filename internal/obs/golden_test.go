package obs

import (
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// lastReloadLine is the one wall-clock value in the exposition.
var lastReloadLine = regexp.MustCompile(`(?m)^(gks_snapshot_last_reload_timestamp_seconds) ([1-9][0-9]*)$`)

// expose renders the registry under a section header, with a non-zero
// last-reload timestamp checked against the clock and replaced by NOW.
func expose(t *testing.T, section string, r *Registry) string {
	t.Helper()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if m := lastReloadLine.FindStringSubmatch(out); m != nil {
		at, _ := strconv.ParseInt(m[2], 10, 64)
		if age := time.Now().Unix() - at; age < 0 || age > 60 {
			t.Errorf("last reload timestamp %d is %d s from now", at, age)
		}
		out = lastReloadLine.ReplaceAllString(out, "$1 NOW")
	}
	return "## " + section + "\n" + out
}

// TestExpositionGolden pins /metrics byte for byte: family order, HELP and
// TYPE text, label order and quoting, series order, which families appear
// when, and how every value is formatted. It drives every method other
// packages call, so testdata/metrics.golden doubles as the reference of the
// series gksd exports. Regenerate with `go test ./internal/obs -update`.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	var got strings.Builder

	// Nothing touched: the always-on families, every gated group absent.
	got.WriteString(expose(t, "fresh", r))

	// Each gated group touched through exactly one member, with a zero: the
	// whole group appears, the role gauge and the histograms stay absent.
	r.SetWALState(0, 0)
	r.SetPackBloat(0)
	r.AddReplicaStreamed(0)
	r.SetBlockCacheBytes(0)
	got.WriteString(expose(t, "groups touched", r))

	// Every method, fixed values. Series are created out of order so the
	// sort is what orders them: codes 504 before 400, shard 10 before 2
	// (numeric order, a string sort would flip them), rank before merge.
	r.ObserveRequest("/search", 200, time.Millisecond) // on the le="0.001" bound
	r.ObserveRequest("/search", 504, 11*time.Second)   // past the last bound: +Inf only
	r.ObserveRequest("/search", 400, 300*time.Microsecond)
	r.ObserveRequest("/search", 404, 300*time.Microsecond)
	r.ObserveRequest("/search", 504, 10*time.Second)
	r.ObserveRequest("/stats", 500, 100*time.Microsecond)
	r.ObserveRequest("/stats", 404, 7*time.Millisecond)
	r.ObserveRequest("/healthz", 200, 42*time.Microsecond)
	r.IncPanic()
	r.IncShed()
	r.IncShed()
	r.AddInFlight(3)
	r.AddInFlight(-1)

	r.SetSnapshotGeneration(1)
	r.ObserveReload(true, 2)
	r.ObserveReload(false, 9) // a failed reload leaves the generation alone

	r.SetShardCount(4)
	r.ObserveShardSearch(10, 3*time.Millisecond)
	r.ObserveShardSearch(2, 250*time.Microsecond)
	r.ObserveShardSearch(10, 20*time.Second)
	r.IncShardPartial()

	r.ObserveSearchStage("rank", 0.0031)
	r.ObserveSearchStage("merge", 0.00001) // on the first bound
	r.ObserveSearchStage("merge", 0.0000025)
	r.ObserveSearchStage("windows", 2)
	r.ObserveSLSize(0)
	r.ObserveSLSize(12)
	r.ObserveSLSize(1_234_555) // the sum prints as 1.01234567e+08
	r.ObserveSLSize(100_000_000)

	r.ObserveIngest("upsert", true, 4*time.Millisecond)
	r.ObserveIngest("upsert", true, 6*time.Millisecond)
	r.ObserveIngest("delete", false, 90*time.Microsecond)
	r.SetDocs(42)

	r.ObserveWALFsync(3, 2*time.Millisecond)
	r.ObserveWALFsync(1, 500*time.Microsecond)
	r.ObserveWALFsync(1000, 30*time.Millisecond)
	r.SetWALState(2, 123_456_789)
	r.ObserveWALReplay(7)
	r.ObserveWALReplay(0)
	r.ObserveCheckpoint(true, 3, 40*time.Millisecond)
	r.ObserveCheckpoint(false, 5, 900*time.Microsecond) // a failed checkpoint removes nothing

	r.ObserveRepack(120 * time.Millisecond)
	r.SetPackBloat(0.125)

	r.SetReplicaRole("follower")
	r.AddReplicaStreamed(5)
	r.IncReplicaSnapshotServed()
	r.SetReplicaLSNs(10, 7) // applied ahead of the watermark last seen: lag clamps at 0
	r.SetReplicaLSNs(4, 3)  // positions never move back
	r.IncReplicaReconnect()
	r.IncReplicaReconnect()
	r.IncReplicaSnapshotInstall()

	r.BlockCacheHit()
	r.BlockCacheHit()
	r.BlockCacheHit()
	r.BlockCacheMiss()
	r.BlockCacheMiss()
	r.BlockCacheEvict()
	r.SetBlockCacheBytes(1 << 20)
	r.ObserveBlockFetch(25 * time.Microsecond) // on the le="2.5e-05" bound
	r.ObserveBlockFetch(3 * time.Millisecond)

	r.SetCacheStats(func() (int64, int64) { return 7, 11 })
	r.SetCacheEvictions(func() (int64, int64) { return 5, 2 })
	got.WriteString(expose(t, "everything", r))

	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition differs from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}

	if n := strings.Count(string(want[strings.Index(string(want), "## everything"):]), "# TYPE "); n != 46 {
		t.Errorf("the full exposition has %d families, want 46", n)
	}
	// The series bench/run.go scrapes; the harness is frozen, so these names
	// are an interface.
	for _, series := range []string{
		"gks_cache_hits_total ", "gks_cache_misses_total ",
		`gks_http_errors_total{endpoint="/search",code="504"} `,
		"gks_http_load_shed_total ",
		"gks_segment_block_cache_hits_total ", "gks_segment_block_cache_misses_total ",
		"gks_segment_block_cache_evictions_total ",
		"gks_wal_fsync_batch_records_sum ", "gks_wal_fsync_batch_records_count ",
		`gks_wal_checkpoints_total{result="success"} `,
		"gks_wal_checkpoint_duration_seconds_sum ", "gks_wal_checkpoint_duration_seconds_count ",
		"gks_repack_duration_seconds_sum ", "gks_repack_duration_seconds_count ",
		"gks_repack_total ", "gks_pack_bloat_ratio ",
	} {
		if !strings.Contains(string(want), "\n"+series) {
			t.Errorf("%s has no series %q, which bench/run.go scrapes", path, series)
		}
	}

	// A follower behind its leader: the derived lag is the difference.
	r.SetReplicaLSNs(4, 25)
	after := expose(t, "lag", r)
	for _, line := range []string{"gks_replica_applied_lsn 10\n", "gks_replica_leader_durable_lsn 25\n", "gks_replica_lag_records 15\n"} {
		if !strings.Contains(after, line) {
			t.Errorf("exposition missing %q", line)
		}
	}
}
