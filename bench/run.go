package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	gks "repro"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/xmltree"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	gksdBin string
	workDir string
	seed    int64
	window  time.Duration
	trace   bool
	scale   int // overrides every workload's scale when > 0 (the smoke test)
	// setupReps is how many times a run sets the system up from nothing;
	// setup_s is their median. boots is how many exec-to-healthy samples
	// gksd.boot_s is the median of; each set-up contributes one.
	setupReps int
	boots     int
	// traceRequests and traceBudget bound the traced replay.
	traceRequests int
	traceBudget   time.Duration
	// corruptExpected falsifies one expected answer, to show that a wrong
	// answer fails the run.
	corruptExpected bool
}

// yardNominal is the yardstick's reading, in ms of harness CPU time per
// operation, that setup_s is scaled to: about what it reads on this box at
// its fastest, averaged over the workloads. Only its constancy matters.
const yardNominal = 0.15

// result is one workload's outcome.
type result struct {
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	FirstError string         `json:"first_error,omitempty"`
	Info       map[string]any `json:"info"`
	EndToEnd   metrics        `json:"end_to_end"`
	PerLayer   metrics        `json:"per_layer"`
}

// built is one complete set-up: corpus generated, indexed, persisted and
// served.
type built struct {
	docs  []*gks.Document
	sys   *gks.System
	proc  *gksd
	build time.Duration
	save  time.Duration
	boot  time.Duration
	total time.Duration
}

type runner struct {
	cfg   config
	wl    *workload
	dir   string
	index string // the persisted index gksd boots from
	args  []string
	scale int
}

func newRunner(cfg config, wl *workload) *runner {
	dir := filepath.Join(cfg.workDir, wl.name)
	r := &runner{cfg: cfg, wl: wl, dir: dir, scale: wl.scale}
	if cfg.scale > 0 {
		r.scale = cfg.scale
	}
	r.index = filepath.Join(dir, "corpus.gks3")
	if wl.gks4 {
		r.index = filepath.Join(dir, "corpus.gks4")
	}
	// -quiet: no access-log line per request. At 10^4 requests per second
	// the log would be most of what the disk sees; everything else is the
	// daemon's default, WAL and checkpointer included.
	r.args = []string{"-index", r.index, "-quiet", "-cache", strconv.Itoa(wl.cache)}
	if wl.gks4 {
		r.args = append(r.args, "-block-cache-mb", strconv.Itoa(wl.blockCache))
	}
	if wl.walOff {
		r.args = append(r.args, "-wal-dir", "off")
	}
	return r
}

// phase logs how long the run has taken so far, to standard error: the
// per-run time cap is tight and this shows where the time goes.
func (r *runner) phase(began time.Time, what string) {
	fmt.Fprintf(os.Stderr, "bench: %s: %6.2fs %s\n", r.wl.name, time.Since(began).Seconds(), what)
}

func (r *runner) start() (*gksd, time.Duration, error) {
	return startGksd(r.cfg.gksdBin, r.args, filepath.Join(r.dir, "gksd.log"))
}

// setupOnce goes from an empty directory to a healthy server.
func (r *runner) setupOnce() (*built, error) {
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	b := &built{}
	t0 := time.Now()
	for _, a := range r.wl.analogs {
		b.docs = append(b.docs, generate(a, r.scale))
	}
	t1 := time.Now()
	sys, err := gks.IndexDocuments(b.docs...)
	if err != nil {
		return nil, err
	}
	if r.wl.packed {
		sys = sys.Packed()
	}
	b.sys = sys
	b.build = time.Since(t1)
	t2 := time.Now()
	if r.wl.gks4 {
		err = sys.SaveSegmentFile(r.index)
	} else {
		err = sys.SaveIndexFile(r.index)
	}
	if err != nil {
		return nil, err
	}
	b.save = time.Since(t2)
	b.proc, b.boot, err = r.start()
	if err != nil {
		return nil, err
	}
	b.total = time.Since(t0)
	return b, nil
}

// expect loads the persisted index back the way gksd loads it (the load is
// a layer number, and the query sampler and the oracle read the result),
// builds the workload's distinct requests, computes each one's expected
// answers in process and cross-checks a sample of them against the oracle.
func (r *runner) expect(b *built, saves []float64, layer metrics, info map[string]any) (reqs []request, checked int, failures []string, err error) {
	wl := r.wl
	var ix *index.Index
	blocks := 0
	t0 := time.Now()
	if wl.gks4 {
		seg, err := segment.OpenFile(r.index, segment.Options{CacheBytes: 1 << 30})
		if err != nil {
			return nil, 0, nil, err
		}
		defer seg.Close()
		layer.set("segment.open_ms", ms(time.Since(t0)), "ms")
		layer.setN("segment.write_ms", median(saves), "ms", len(saves))
		layer.set("segment.file_mib", mib(fileBytes(r.index)), "MiB")
		ix, blocks = seg.Index(), seg.NumBlocks()
		// Touching every term leaves every block in the (huge) cache:
		// its size is the decompressed posting bytes the 1 MiB cache of
		// the server has to cover.
		if err := seg.ForEachTerm(func(term string, _ int) error { _, err := seg.Postings(term); return err }); err != nil {
			return nil, 0, nil, err
		}
		info["posting_block_bytes"] = seg.Cache().Bytes()
		info["block_cache_bytes"] = int64(wl.blockCache) << 20
	} else {
		if ix, err = index.LoadFile(r.index); err != nil {
			return nil, 0, nil, err
		}
		layer.set("index.load_ms", ms(time.Since(t0)), "ms")
	}

	reqs = wl.population(b.sys, ix, blocks, b.docs)
	if err := fillAnswers(b.sys, reqs, wl.cache > 0, runtime.NumCPU()); err != nil {
		return nil, 0, nil, err
	}
	if r.cfg.corruptExpected {
		reqs[0].want.total++
	}
	checked, failures = oracleCheck(b.sys, ix, reqs)
	return reqs, checked, failures, nil
}

// run executes the workload once and reports every metric.
func (r *runner) run() (res *result, err error) {
	cfg, wl := r.cfg, r.wl
	began := time.Now()
	e2e, layer := metrics{}, metrics{}
	res = &result{EndToEnd: e2e, PerLayer: layer, Info: map[string]any{}}

	// Set-up, several times; the last one's server carries the workload.
	var b *built
	var setups, builds, saves, boots []float64
	defer func() {
		if b != nil && b.proc != nil {
			b.proc.stop(syscall.SIGKILL)
		}
	}()
	for i := 0; i < cfg.setupReps; i++ {
		if b != nil {
			if err := b.proc.stop(syscall.SIGTERM); err != nil {
				return nil, fmt.Errorf("stopping gksd between set-ups: %w", err)
			}
			b.proc = nil
		}
		if b, err = r.setupOnce(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sec(b.total))
		builds = append(builds, sec(b.build))
		saves = append(saves, ms(b.save))
		boots = append(boots, sec(b.boot))
	}
	for len(boots) < cfg.boots {
		if err := b.proc.stop(syscall.SIGTERM); err != nil {
			return nil, fmt.Errorf("stopping gksd between boots: %w", err)
		}
		var d time.Duration
		if b.proc, d, err = r.start(); err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, sec(d))
	}
	r.phase(began, "set up and booted")
	layer.setN("gksd.boot_s", median(boots), "s", len(boots))

	var userBytes int64
	for _, d := range b.docs {
		n, err := xmltree.XMLSize(d)
		if err != nil {
			return nil, err
		}
		userBytes += n
	}
	layer.setN("index.build_s", median(builds), "s", len(builds))
	layer.set("index.build_mib_s", ratio(mib(userBytes), median(builds)), "MiB/s")
	layer.set("index.node_table_mib", mib(b.sys.NodeTableBytes()), "MiB")

	reqs, checked, oracleFailures, err := r.expect(b, saves, layer, res.Info)
	if err != nil {
		return nil, err
	}
	// During the window the harness holds the requests and their answers
	// and nothing of the system under test: its CPU time per operation is
	// the yardstick, and collecting around a resident index would make it
	// depend on how large this commit's index is.
	b.sys, b.docs = nil, nil
	runtime.GC()
	r.phase(began, "expected answers computed")

	// One process, nproc closed-loop connections; with a writer, it takes
	// one of them.
	nproc := runtime.NumCPU()
	readers := nproc
	var w *writer
	var wconn *conn
	if wl.ingest {
		readers = max(readers-1, 1)
		w, wconn = newWriter(cfg.seed), newConn(b.proc.base)
		defer wconn.close()
	}
	streams := make([]*stream, readers)
	conns := make([]*conn, readers)
	for i := range streams {
		streams[i] = newStream(wl, reqs, cfg.seed, i)
		conns[i] = newConn(b.proc.base)
		defer conns[i].close()
	}
	if warm := runLoad(streams, conns, nil, nil, wl.warmup, time.Time{}); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %s", warm.failed, warm.attempted, warm.firstErr)
	}

	r.phase(began, "warmed up")
	promBefore, err := b.proc.scrape()
	if err != nil {
		return nil, err
	}
	useBefore, err := b.proc.usage()
	if err != nil {
		return nil, err
	}
	cpuBefore := selfCPU()
	stopRSS := b.proc.sampleRSS()
	start := time.Now()
	tl := runLoad(streams, conns, w, wconn, 0, start.Add(cfg.window))
	elapsed := time.Since(start)
	clientCPU := selfCPU() - cpuBefore
	rss := stopRSS()
	useAfter, err := b.proc.usage()
	if err != nil {
		return nil, err
	}
	promAfter, err := b.proc.scrape()
	if err != nil {
		return nil, err
	}
	windowOps := tl.attempted
	r.phase(began, "window closed")

	// The yardstick. This box's speed changes by up to a factor of two
	// from one minute to the next, and gksd's and the harness's CPU time per
	// operation change with it by the same factor. The harness does the same
	// work for every operation on every commit (send, read, decode, compare),
	// so its CPU time per operation, taken over the same window, measures
	// how fast the box was, and the gated times are given as multiples of it.
	yard := ratio(ms(clientCPU), float64(windowOps)) // ms of harness CPU per operation
	// Set-up ran seconds before the window, on the same slow or fast box:
	// it is scaled to the speed at which the yardstick reads yardNominal.
	e2e.setN("setup_s", median(setups)*ratio(yardNominal, yard), "s", len(setups))
	layer.setN("bench.setup_raw_s", median(setups), "s", len(setups))
	search := sortedCopy(tl.lat[opSearch])
	qps := ratio(float64(len(search)), sec(elapsed))
	e2e.setN("search_qps_rel", qps*yard/1000, "ratio", len(search))
	e2e["search_p50_rel"] = pctOf(search, 50, yard, "ratio")
	e2e["search_p99_rel"] = pctOf(search, 99, yard, "ratio")
	e2e.set("server_cpu_rel", ratio(sec(useAfter.cpu-useBefore.cpu), sec(clientCPU)), "ratio")
	// The mean over the window, not the high-water mark: VmHWM is set by
	// whichever transient (the index load at boot, a repack meeting a heap
	// about to be collected) happened to be largest, and moves 10-20% from
	// run to run where the mean moves 2-6%.
	e2e.setN("rss_mean_mib", mean(rss), "MiB", len(rss))
	layer.set("gksd.rss_peak_mib", float64(useAfter.hwmKiB)/1024, "MiB")
	layer.setN("client.search_qps", qps, "1/s", len(search))
	layer["client.search_p50_ms"] = pctOf(search, 50, 1, "ms")
	layer["client.search_p95_ms"] = pctOf(search, 95, 1, "ms")
	layer["client.search_p99_ms"] = pctOf(search, 99, 1, "ms")
	layer["client.search_max_ms"] = pctOf(search, 100, 1, "ms")
	layer.setPct("client.insights_p50_ms", tl.lat[opInsights], 50, "ms")
	layer.set("server.json_bytes_per_resp", ratio(float64(tl.bodyBytes), float64(len(search))), "B")
	layer.set("gksd.cpu_ms_per_req", ratio(ms(useAfter.cpu-useBefore.cpu), float64(windowOps)), "ms")
	layer.set("gksd.rss_end_mib", float64(useAfter.rssKiB)/1024, "MiB")
	layer.set("bench.client_cpu_s", sec(clientCPU), "s")
	layer.setN("bench.client_cpu_ms_per_op", yard, "ms", windowOps)
	scraped(layer, promBefore, promAfter)

	liveBytes := userBytes
	if wl.ingest {
		mut := tl.lat[opMutation]
		layer.setN("upsert_ops_s", ratio(float64(len(mut)), sec(elapsed)), "1/s", len(mut))
		layer.setPct("upsert_p50_ms", mut, 50, "ms")
		layer.setPct("upsert_p95_ms", mut, 95, "ms")
		layer.set("client.writer_late_ms_max", ms(w.maxLate), "ms")
		layer.set("checkpoint.bytes_per_user_byte",
			ratio(layer["checkpoint.count"].Value*float64(fileBytes(r.index)), float64(w.sent)), "B/B")
		liveBytes += w.liveBytes()

		// The crash: no drain, no final checkpoint. The restarted server
		// has only the last checkpoint and the log.
		if err := b.proc.stop(syscall.SIGKILL); err != nil {
			return nil, err
		}
		var recovery time.Duration
		if b.proc, recovery, err = r.start(); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		layer.set("wal.recovery_s", sec(recovery), "s")
		vconn := newConn(b.proc.base)
		w.verify(vconn, tl)
		vconn.close()
	}

	// A clean stop folds the log into the snapshot; what is left on disk
	// is what the data costs at rest.
	err = b.proc.stop(syscall.SIGTERM)
	b.proc = nil
	if err != nil {
		return nil, fmt.Errorf("clean stop: %w", err)
	}
	r.phase(began, "stopped")
	disk := fileBytes(r.index) + dirBytes(r.index+".wal")
	e2e.set("disk_per_user_byte", ratio(float64(disk), float64(liveBytes)), "B/B")

	res.Attempted = tl.attempted + checked
	res.Failed = tl.failed + len(oracleFailures)
	res.FirstError = tl.firstErr
	if len(oracleFailures) > 0 {
		res.FirstError = oracleFailures[0]
	}
	res.Correct = res.Failed == 0
	layer.set("error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")

	res.Info["scale"] = r.scale
	res.Info["corpus_xml_bytes"] = userBytes
	res.Info["index_file_bytes"] = fileBytes(r.index)
	res.Info["distinct_requests"] = len(reqs)
	res.Info["oracle_queries"] = checked
	res.Info["window_s"] = sec(elapsed)
	res.Info["connections"] = nproc
	res.Info["gksd_flags"] = r.args
	if wl.ingest {
		res.Info["mutations_acknowledged"] = len(tl.lat[opMutation])
		res.Info["documents_verified_after_crash"] = len(w.version)
	}

	if cfg.trace {
		if err := r.traced(reqs, layer, res.Info); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		r.phase(began, "traced")
		layer.set("bench.trace_overhead_ratio",
			ratio(layer["trace.search_p50_ms"].Value, layer["client.search_p50_ms"].Value), "ratio")
	}
	return res, nil
}

// scraped fills the counts only the server knows, as the change in its
// /metrics over the timed window.
func scraped(layer metrics, before, after map[string]float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	hitRatio := func(hits, misses string) float64 {
		return ratio(delta(hits), delta(hits)+delta(misses))
	}
	meanMs := func(hist string) float64 {
		return 1000 * ratio(delta(hist+"_sum"), delta(hist+"_count"))
	}
	layer.set("cache.hit_ratio", hitRatio("gks_cache_hits_total", "gks_cache_misses_total"), "ratio")
	layer.set("segment.block_cache_hit_ratio",
		hitRatio("gks_segment_block_cache_hits_total", "gks_segment_block_cache_misses_total"), "ratio")
	layer.set("segment.block_cache_evictions", delta("gks_segment_block_cache_evictions_total"), "count")
	layer.set("server.shed_total", delta("gks_http_load_shed_total"), "count")
	timeouts := 0.0
	for series := range after {
		if strings.HasPrefix(series, "gks_http_errors_total{") && strings.HasSuffix(series, `code="504"}`) {
			timeouts += delta(series)
		}
	}
	layer.set("server.timeout_total", timeouts, "count")
	layer.set("wal.batch_records_mean",
		ratio(delta("gks_wal_fsync_batch_records_sum"), delta("gks_wal_fsync_batch_records_count")), "count")
	layer.set("checkpoint.count", delta(`gks_wal_checkpoints_total{result="success"}`), "count")
	layer.set("checkpoint.ms_mean", meanMs("gks_wal_checkpoint_duration_seconds"), "ms")
	layer.set("repack.count", delta("gks_repack_total"), "count")
	layer.set("repack.ms_mean", meanMs("gks_repack_duration_seconds"), "ms")
	layer.set("index.pack_debt_end", after["gks_pack_bloat_ratio"], "ratio")
}
