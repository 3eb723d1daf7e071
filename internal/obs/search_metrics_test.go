package obs

import (
	"strings"
	"testing"
)

func TestSearchStageAndSLSizeSeries(t *testing.T) {
	r := NewRegistry()
	r.ObserveSearchStage("merge", 0.0002)
	r.ObserveSearchStage("merge", 0.02)
	r.ObserveSearchStage("rank", 0.001)
	r.ObserveSLSize(0)
	r.ObserveSLSize(12)
	r.ObserveSLSize(250_000)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		`gks_search_stage_seconds_bucket{stage="merge",le="+Inf"} 2`,
		`gks_search_stage_seconds_count{stage="merge"} 2`,
		`gks_search_stage_seconds_count{stage="rank"} 1`,
		"# TYPE gks_search_stage_seconds histogram",
		`gks_search_sl_entries_bucket{le="1"} 1`,
		`gks_search_sl_entries_bucket{le="100"} 2`,
		`gks_search_sl_entries_bucket{le="1e+06"} 3`,
		"gks_search_sl_entries_count 3",
		"# TYPE gks_search_sl_entries histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q in output:\n%s", want, out)
		}
	}

	if merge, rank := r.Value("gks_search_stage_seconds", "stage", "merge"), r.Value("gks_search_stage_seconds", "stage", "rank"); merge != 2 || rank != 1 {
		t.Errorf("stage observations: merge %v rank %v, want 2 and 1", merge, rank)
	}
	if got := r.Value("gks_search_sl_entries"); got != 3 {
		t.Errorf("S_L observations = %v, want 3", got)
	}
}

// TestStageHistogramsAbsentUntilObserved keeps the exposition clean for
// deployments that never wire a SearchObserver.
func TestStageHistogramsAbsentUntilObserved(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), "gks_search_stage_seconds") ||
		strings.Contains(b.String(), "gks_search_sl_entries") {
		t.Errorf("unobserved search series should not be exported:\n%s", b.String())
	}
}
