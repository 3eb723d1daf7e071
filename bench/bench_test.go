package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	testGksd string
	testSpec *spec
)

// TestMain builds the gksd the smoke runs serve with.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gksbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testGksd = filepath.Join(dir, "gksd")
	if out, err := exec.Command("go", "build", "-o", testGksd, "repro/cmd/gksd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building gksd: %v\n%s", err, out)
		os.Exit(1)
	}
	if testSpec, err = readSpec("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(t *testing.T) config {
	return config{
		gksdBin: testGksd, workDir: t.TempDir(), seed: 1, window: time.Second, trace: true,
		scale: 1, setupReps: 1, boots: 1, traceRequests: 300, traceBudget: time.Second,
	}
}

// TestSmoke runs every workload at scale 1 for one second and checks that
// each answers correctly and emits exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	cfg := smokeConfig(t)
	byName := map[string]*workload{}
	for _, wl := range workloads() {
		byName[wl.name] = wl
	}
	if len(byName) != len(testSpec.Workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(byName), len(testSpec.Workloads))
	}
	for _, w := range testSpec.Workloads {
		wl := byName[w.Name]
		if wl == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the harness lacks", w.Name)
		}
		res, err := newRunner(cfg, wl).run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.Name, res.Failed, res.Attempted, res.FirstError)
		}
		// Before conform fills the gaps: everything the spec names for a
		// layer this workload runs must have been measured.
		for _, sm := range testSpec.EndToEnd {
			if m, ok := res.EndToEnd[sm.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.Name, sm.Name, m)
			}
		}
		measured := len(res.PerLayer)
		conform(res, testSpec, true)
		if len(res.PerLayer) != len(testSpec.PerLayer) || measured > len(testSpec.PerLayer)+1 {
			// trace.search_p50_ms is the one helper value the spec omits.
			t.Errorf("%s: measured %d per-layer metrics, spec names %d", w.Name, measured, len(testSpec.PerLayer))
		}
		for n := range res.EndToEnd {
			if !name.MatchString(n) {
				t.Errorf("bad metric name %q", n)
			}
		}
		for n := range res.PerLayer {
			if !name.MatchString(n) {
				t.Errorf("bad metric name %q", n)
			}
		}
		if wl.ingest {
			if res.PerLayer["upsert_ops_s"].Value <= 0 || res.PerLayer["wal.recovery_s"].Value <= 0 {
				t.Errorf("ingest_mixed measured no writes: %+v", res.PerLayer["upsert_ops_s"])
			}
		}
		if got := res.PerLayer["trace.self_sum_ratio"].Value; got < 0.95 || got > 1.05 {
			t.Errorf("%s: self times sum to %.3f of client.request", w.Name, got)
		}
		if _, err := os.Stat(filepath.Join(cfg.workDir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}

// TestWrongAnswerFails falsifies one expected answer; the run must count
// the mismatch and report itself incorrect.
func TestWrongAnswerFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.trace, cfg.corruptExpected, cfg.window = false, true, 300*time.Millisecond
	res, err := newRunner(cfg, workloads()[0]).run()
	if err == nil && (res.Correct || res.Failed == 0) {
		t.Fatalf("a wrong expected answer went unnoticed: %+v", res)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{{50, 50, true}, {90, 90, true}, {95, 95, false}, {99, 99, false}, {100, 100, false}} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v of 1..100 = %v supported=%v, want %v %v", c.p, got, ok, c.want, c.ok)
		}
	}
	// 200 samples: rank 190, ten beyond.
	if _, ok := percentile(make([]float64, 200), 95); !ok {
		t.Error("p95 of 200 samples has ten beyond it and must be supported")
	}
	if _, ok := percentile(make([]float64, 199), 95); ok {
		t.Error("p95 of 199 samples has nine beyond it and must not be supported")
	}
	if v, ok := percentile(nil, 50); v != 0 || ok {
		t.Error("empty sample")
	}
	if got, _ := percentile([]float64{1, 2, 3}, 50); got != 2 {
		t.Errorf("nearest rank of {1,2,3} at 50 = %v", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	wl := &workload{pick: zipfPick}
	reqs := make([]request, 512)
	draw := func(seed int64, client int) string {
		st := newStream(wl, reqs, seed, client)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			idx, ins := wl.pick(st.rng, st.zipf, len(reqs))
			fmt.Fprint(&b, idx, ins, " ")
		}
		return b.String()
	}
	if draw(7, 0) != draw(7, 0) {
		t.Error("same seed, different Zipf stream")
	}
	if draw(7, 0) == draw(8, 0) || draw(7, 0) == draw(7, 1) {
		t.Error("seed or connection does not change the stream")
	}
	n1, t1, x1 := ingestDoc(7, 3, 2)
	n2, t2, x2 := ingestDoc(7, 3, 2)
	if n1 != n2 || t1 != t2 || x1 != x2 {
		t.Error("same (seed, document, version), different document")
	}
	if _, _, y := ingestDoc(8, 3, 2); y == x1 {
		t.Error("seed does not change the document")
	}
	if _, tok, y := ingestDoc(7, 3, 3); y == x1 || tok == t1 {
		t.Error("version does not change the document")
	}
	if len(x1) < 20<<10 || len(x1) > 21<<10 || !strings.Contains(x1, t1) {
		t.Errorf("document of %d bytes, token present %v", len(x1), strings.Contains(x1, t1))
	}
	w1, w2 := newWriter(7), newWriter(7)
	for i := 0; i < 50; i++ {
		if w1.rng.Float64() != w2.rng.Float64() {
			t.Fatal("writer streams diverge")
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// client 0..100 ⊃ handler 10..90 ⊃ search 20..80 ⊃ {merge 20..40 ⊃
	// fetch 25..35, rank 40..70}; a second root 200..230 with no children.
	spans := []span{
		{ID: 1, Parent: 0, Name: spanClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanHandler, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanSearch, Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: spanMerge, Start: 20, End: 40},
		{ID: 5, Parent: 4, Name: spanFetch, Start: 25, End: 35},
		{ID: 6, Parent: 3, Name: spanRank, Start: 40, End: 70},
		{ID: 7, Parent: 0, Name: spanClient, Start: 200, End: 230},
	}
	want := []int64{20, 20, 10, 10, 10, 30, 30}
	got := selfTimes(spans)
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i+1, spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 130 {
		t.Errorf("self times sum to %d, the two requests last 130", sum)
	}
	m := metrics{}
	spanMetrics(spans, m)
	if got := m["rank.share"].Value; got != 30.0/130 {
		t.Errorf("rank.share = %v", got)
	}
	if got := m["trace.self_sum_ratio"].Value; got != 1 {
		t.Errorf("trace.self_sum_ratio = %v", got)
	}
}

// TestCompareGate: an A/A pair passes; one end-to-end metric of one
// workload worsened by more than its bound trips the gate, which names the
// row, and by less does not; a spread between the old document's own sets
// beyond the bound reads unresolved.
func TestCompareGate(t *testing.T) {
	doc := func(scale map[string]float64) *document {
		set := map[string]*result{}
		for _, w := range testSpec.Workloads {
			r := &result{EndToEnd: metrics{}}
			for _, sm := range testSpec.EndToEnd {
				r.EndToEnd.set(sm.Name, 100*scaleOr1(scale, w.Name+"/"+sm.Name), sm.Unit)
			}
			set[w.Name] = r
		}
		return &document{Sets: []map[string]*result{set}}
	}
	var out bytes.Buffer
	if code := compareTable(&out, testSpec, doc(nil), doc(nil)); code != 0 {
		t.Errorf("A/A comparison failed:\n%s", out.String())
	}
	for _, sm := range testSpec.EndToEnd {
		row := "serve_zipf/" + sm.Name
		// by is the factor that worsens the metric by the given share.
		by := func(share float64) map[string]float64 {
			if sm.Better == "higher" {
				return map[string]float64{row: 1 - share}
			}
			return map[string]float64{row: 1 + share}
		}
		out.Reset()
		if code := compareTable(&out, testSpec, doc(nil), doc(by(sm.Bound+0.03))); code != 1 || !strings.Contains(out.String(), "["+row+"]") {
			t.Errorf("%s worse by its bound + 3%%: exit %d\n%s", row, code, out.String())
		}
		out.Reset()
		if code := compareTable(&out, testSpec, doc(nil), doc(by(sm.Bound-0.03))); code != 0 {
			t.Errorf("%s worse by its bound - 3%%: exit %d\n%s", row, code, out.String())
		}
		out.Reset()
		if code := compareTable(&out, testSpec, doc(nil), doc(by(-0.5))); code != 0 {
			t.Errorf("%s better by 50%% tripped the gate:\n%s", row, out.String())
		}
	}
	out.Reset()
	noisy := doc(nil)
	noisy.Sets = append(noisy.Sets, doc(map[string]float64{"cold_segment/search_p50_rel": 1.5}).Sets...)
	if code := compareTable(&out, testSpec, noisy, doc(map[string]float64{"cold_segment/search_p50_rel": 1.12})); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a metric noisier than its bound must read unresolved: exit %d\n%s", code, out.String())
	}
}

func scaleOr1(m map[string]float64, key string) float64 {
	if v, ok := m[key]; ok {
		return v
	}
	return 1
}
