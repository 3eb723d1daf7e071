// Command bench is the repository's measurement harness: it builds a
// corpus, persists it, serves it from a real gksd process, drives that
// process over loopback HTTP from closed-loop connections, checks every
// answer, and prints every metric BENCHMARK.json names. See README.md.
//
// Run it through run.sh, which builds gksd and this program first:
//
//	bash bench/run.sh                                   all workloads, traced, full document
//	bash bench/run.sh -workload serve_zipf -seconds 5   one workload
//	bash bench/run.sh -aa 2 -out aa.json                two sets of the same build
//	bash bench/run.sh -compare old.json new.json        the regression gate
//
// With -workload and -trace both given it speaks the driver's protocol:
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics for
// -trace 0, the per-layer metrics for -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the metric names, units and bounds, and the
// workload names. The harness prints exactly the metrics it lists.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// envelope records where and how a document's numbers were taken.
type envelope struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	Commit      string  `json:"commit"`
	Time        string  `json:"time"`
	Seed        int64   `json:"seed"`
	WindowS     float64 `json:"window_s"`
	Connections int     `json:"connections"`
	Loop        string  `json:"loop"`
	FlushPolicy string  `json:"flush_policy"`
	SetupReps   int     `json:"setup_reps"`
	Boots       int     `json:"boots"`
	CorpusSeed  int64   `json:"corpus_seed"`
}

// document is what a run writes: one envelope, one or more sets of
// per-workload results (-aa makes several), and no claim — this harness
// measures, it does not compare against anything by itself.
type document struct {
	Envelope envelope             `json:"envelope"`
	Claim    *string              `json:"claim"`
	Sets     []map[string]*result `json:"sets"`
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit asks git about the checkout that holds the spec; a checkout that
// is not a repository has no commit to report.
func commit(specPath string) string {
	out, err := exec.Command("git", "-C", filepath.Dir(specPath), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	only := flag.String("workload", "all", "workload to run: a name from BENCHMARK.json, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request streams and the ingested documents")
	seconds := flag.Float64("seconds", 0, "length of the timed window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "1: also make the traced run and the direct layer timings; 0: end-to-end only; unset: as 1, and print the full document")
	out := flag.String("out", "", "also write the full document to this file")
	aa := flag.Int("aa", 1, "run this many back-to-back sets and report the spread of every end-to-end metric")
	compare := flag.Bool("compare", false, "compare two documents: -compare old.json new.json")
	specPath := flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.StringVar(&cfg.gksdBin, "gksd", "", "path of the gksd binary to serve with (run.sh builds and passes it)")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/work", "directory for corpora, logs and traces; emptied per workload")
	flag.BoolVar(&cfg.corruptExpected, "corrupt-expected", false, "falsify one expected answer: the run must fail")
	flag.Parse()

	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two documents: old.json new.json")
			return 2
		}
		return compareDocs(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}
	if cfg.gksdBin == "" {
		fmt.Fprintln(os.Stderr, "bench: -gksd is required; run through bench/run.sh")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace != 0
	cfg.setupReps, cfg.boots = 3, 5
	cfg.traceRequests = 2000
	cfg.traceBudget = cfg.window / 2
	if cfg.workDir, err = filepath.Abs(cfg.workDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	var selected []*workload
	for _, wl := range workloads() {
		if *only == "all" || *only == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
		return 2
	}

	doc := &document{Envelope: envelope{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: commit(*specPath), Time: time.Now().UTC().Format(time.RFC3339),
		Seed: cfg.seed, WindowS: *seconds, Connections: runtime.NumCPU(), Loop: "closed",
		FlushPolicy: "gksd default: WAL group-commit fsync before each acknowledgement",
		SetupReps:   cfg.setupReps, Boots: cfg.boots, CorpusSeed: corpusSeed,
	}}
	ok := true
	for set := 0; set < *aa; set++ {
		results := map[string]*result{}
		for _, wl := range selected {
			fmt.Fprintf(os.Stderr, "bench: set %d: %s\n", set+1, wl.name)
			res, err := newRunner(cfg, wl).run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
				return 1
			}
			conform(res, sp, cfg.trace)
			if !res.Correct {
				ok = false
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed: %s\n", wl.name, res.Failed, res.Attempted, res.FirstError)
			}
			results[wl.name] = res
		}
		doc.Sets = append(doc.Sets, results)
	}

	full, _ := json.MarshalIndent(doc, "", "  ")
	for _, path := range []string{filepath.Join(cfg.workDir, "result.json"), *out} {
		if path == "" {
			continue
		}
		if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *aa > 1 {
		printSpread(os.Stderr, sp, doc)
	}
	if *trace >= 0 && len(selected) == 1 && *aa == 1 {
		res := doc.Sets[0][selected[0].name]
		from := res.EndToEnd
		if *trace == 1 {
			from = res.PerLayer
		}
		line := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
		ms := map[string]any{}
		for name, m := range from {
			ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		line["metrics"] = ms
		enc, _ := json.Marshal(line)
		fmt.Println(string(enc))
	} else {
		fmt.Println(string(full))
	}
	if !ok {
		return 1
	}
	return 0
}

// conform makes a result hold exactly the metrics the spec names, with the
// spec's units: a per-layer metric of a layer that did not run on this
// workload reads 0, and anything the spec does not name is dropped. An
// untraced run has no per-layer section to conform.
func conform(res *result, sp *spec, traced bool) {
	fit := func(have metrics, want []specMetric) metrics {
		out := metrics{}
		for _, sm := range want {
			m := have[sm.Name]
			m.Unit = sm.Unit
			out[sm.Name] = m
		}
		return out
	}
	res.EndToEnd = fit(res.EndToEnd, sp.EndToEnd)
	if traced {
		res.PerLayer = fit(res.PerLayer, sp.PerLayer)
	}
}
