package server

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSearchObserverRecordsStagesAndSLSize wires an obs.Registry into the
// handler and checks that a real search reports all five pipeline stages
// plus the merged-list size, while a response served from cache does not
// re-observe.
func TestSearchObserverRecordsStagesAndSLSize(t *testing.T) {
	h := NewWithCache(testSystem(t), 8)
	reg := obs.NewRegistry()
	h.SetSearchObserver(reg)

	if code, body := get(t, h, "/search?q=karen+mining&s=1"); code != 200 {
		t.Fatalf("search: %d %s", code, body)
	}
	for _, stage := range []string{"merge", "windows", "lift", "filter", "rank"} {
		if n := reg.Value("gks_search_stage_seconds", "stage", stage); n != 1 {
			t.Errorf("stage %q observed %v times, want 1", stage, n)
		}
	}
	if n := reg.Value("gks_search_sl_entries"); n != 1 {
		t.Errorf("SL size observed %v times, want 1", n)
	}

	// A cache hit performs no engine work, so nothing new is observed.
	if code, body := get(t, h, "/search?q=karen+mining&s=1"); code != 200 {
		t.Fatalf("cached search: %d %s", code, body)
	}
	if n := reg.Value("gks_search_stage_seconds", "stage", "merge"); n != 1 {
		t.Errorf("cache hit re-observed stages: merge observed %v times", n)
	}

	// Insights and refine run searches too (different queries bypass the
	// /search cache path entirely).
	if code, body := get(t, h, "/insights?q=karen&s=1"); code != 200 {
		t.Fatalf("insights: %d %s", code, body)
	}
	if code, body := get(t, h, "/refine?q=mining&s=1"); code != 200 {
		t.Fatalf("refine: %d %s", code, body)
	}
	if n := reg.Value("gks_search_stage_seconds", "stage", "merge"); n != 3 {
		t.Errorf("merge observed %v times after insights+refine, want 3", n)
	}
	if n := reg.Value("gks_search_sl_entries"); n != 3 {
		t.Errorf("SL size observed %v times, want 3", n)
	}
}

// TestExplainIncludesStages checks the /explain payload carries the
// per-stage breakdown alongside the legacy coarse timings.
func TestExplainIncludesStages(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/explain?q=karen+mining&s=1")
	if code != 200 {
		t.Fatalf("explain: %d %s", code, body)
	}
	for _, field := range []string{"\"stages\"", "\"windowsMicros\"", "\"liftMicros\"", "\"filterMicros\""} {
		if !strings.Contains(body, field) {
			t.Errorf("explain body missing %s: %s", field, body)
		}
	}
}
