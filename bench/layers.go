package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// gksd's defaults, which the traced server repeats.
const (
	gksdTimeout     = 10 * time.Second
	gksdMaxInflight = 256
)

// traced replays the head of connection 0's request stream, in process and
// on one goroutine, through the handler and middleware chain gksd serves
// with, and attributes each request's time to layers from spans recorded
// around the calls into them. Layers without such a seam are then timed by
// calling their public functions on the workload's own inputs.
func (r *runner) traced(reqs []request, layer metrics, info map[string]any) error {
	tr := newTracer()
	sys, err := gks.LoadIndexFileOpts(r.index, gks.SegmentOptions{
		CacheBytes: int64(r.wl.blockCache) << 20,
		Metrics:    tr,
	})
	if err != nil {
		return err
	}
	defer sys.CloseIndex()

	reg := obs.NewRegistry()
	quiet := log.New(io.Discard, "", 0)
	api := server.NewWithCache(tracedSystem{sys, tr}, r.wl.cache)
	reg.SetCacheStats(api.CacheStats)
	api.SetSearchObserver(reg)
	root := http.NewServeMux()
	root.Handle("/", server.Chain(api,
		tr.middleware,
		server.WithMetrics(reg),
		server.WithRecovery(reg, quiet),
		server.WithLimit(gksdMaxInflight, reg),
		server.WithTimeout(gksdTimeout),
	))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.NewHTTPServer("", root, gksdTimeout)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()

	c := newConn("http://" + ln.Addr().String())
	defer c.close()
	st := newStream(r.wl, reqs, r.cfg.seed, 0)
	// The same warm-up as the untraced run, unrecorded.
	warm := &tally{}
	for i := 0; i < r.wl.warmup; i++ {
		st.next(c, warm)
	}
	tr.reset()
	tl := &tally{}
	deadline := time.Now().Add(r.cfg.traceBudget)
	n := 0
	for ; n < r.cfg.traceRequests && time.Now().Before(deadline); n++ {
		id := tr.beginRequest()
		c.afterBody = func() { tr.end(id) }
		st.next(c, tl)
	}
	c.afterBody = nil
	traced := tl.lat[opSearch]
	tl.merge(warm)
	if tl.failed > 0 {
		return fmt.Errorf("%d of %d traced requests failed: %s", tl.failed, tl.attempted, tl.firstErr)
	}
	if err := tr.write(filepath.Join(r.cfg.workDir, "trace-"+r.wl.name+".json")); err != nil {
		return err
	}
	info["traced_requests"] = n
	spanMetrics(tr.spans, layer)
	layer.setPct("trace.search_p50_ms", traced, 50, "ms")

	r.directLayers(sys, reqs, layer)
	if r.wl.ingest {
		return r.ingestLayers(sys, layer)
	}
	return nil
}

// spanMetrics turns the recorded spans into the per-layer numbers.
func spanMetrics(spans []span, layer metrics) {
	self := selfTimes(spans)
	selfByLayer := map[string]float64{}
	dur := map[string][]float64{}    // span name -> durations, ms
	selfOf := map[string][]float64{} // span name -> self times, ms
	var total, sl, results float64
	for i, s := range spans {
		selfByLayer[spanLayer[s.Name]] += float64(self[i])
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		selfOf[s.Name] = append(selfOf[s.Name], float64(self[i])/1e6)
		if s.Name == spanClient {
			total += float64(s.End - s.Start)
		}
		sl += float64(s.SL)
		results += float64(s.Results)
	}
	searches := float64(len(dur[spanSearch]))
	all := 0.0
	for _, l := range []string{"rank", "merge", "core", "segment", "server", "http", "di"} {
		name := l + ".share"
		if l == "server" || l == "http" {
			name = l + ".self_share"
		}
		layer.set(name, ratio(selfByLayer[l], total), "ratio")
		all += selfByLayer[l]
	}
	// 1 when every span nests inside its parent, as the self times assume.
	layer.set("trace.self_sum_ratio", ratio(all, total), "ratio")

	layer.setPct("rank.ms_p50", dur[spanRank], 50, "ms")
	layer.set("rank.us_per_result", 1000*ratio(sum(dur[spanRank]), results), "us")
	layer.setPct("merge.ms_p50", selfOf[spanMerge], 50, "ms")
	layer.set("merge.sl_entries_per_query", ratio(sl, searches), "count")
	layer.set("merge.ns_per_entry", 1e6*ratio(sum(selfOf[spanMerge]), sl), "ns")
	layer.setPct("core.windows_ms_p50", dur[spanWindows], 50, "ms")
	layer.setPct("core.lift_ms_p50", dur[spanLift], 50, "ms")
	layer.setPct("core.filter_ms_p50", dur[spanFilter], 50, "ms")
	layer.setPct("core.search_ms_p50", dur[spanSearch], 50, "ms")
	layer.set("core.results_per_query", ratio(results, searches), "count")
	layer.setPct("segment.block_fetch_ms_p50", dur[spanFetch], 50, "ms")
	layer.set("segment.block_fetches_per_query", ratio(float64(len(dur[spanFetch])), searches), "count")
	layer.setPct("server.self_ms_p50", selfOf[spanHandler], 50, "ms")
	layer.setPct("http.self_ms_p50", selfOf[spanClient], 50, "ms")
	layer.setPct("di.insights_ms_p50", dur[spanDI], 50, "ms")
}

// directLayers times the read-side layers that have no seam.
func (r *runner) directLayers(sys *gks.System, reqs []request, layer metrics) {
	sample := reqs[:min(len(reqs), 512)]

	start := time.Now()
	for _, rq := range sample {
		gks.ParseQuery(rq.query)
	}
	layer.setN("textproc.parse_query_us", 1000*ms(time.Since(start))/float64(len(sample)), "us", len(sample))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Second)
	n := 0
	for ; n < len(sample) && time.Now().Before(deadline); n++ {
		sys.SearchContext(context.Background(), sample[n].query, sample[n].s)
	}
	runtime.ReadMemStats(&after)
	layer.setN("core.allocs_per_query", ratio(float64(after.Mallocs-before.Mallocs), float64(n)), "count", n)

	if seg := sys.Segment(); seg != nil {
		var us []float64
		for _, rq := range sample {
			for _, kw := range gks.ParseQuery(rq.query).Keywords {
				t := time.Now()
				seg.Postings(kw.Tokens[0])
				us = append(us, 1000*ms(time.Since(t)))
			}
		}
		layer.setPct("segment.postings_us_p50", us, 50, "us")
	}
}

// fsyncRecorder is the wal.Metrics sink of the direct WAL timing.
type fsyncRecorder struct {
	mu sync.Mutex
	ms []float64
}

func (f *fsyncRecorder) ObserveWALFsync(_ int, d time.Duration) {
	f.mu.Lock()
	f.ms = append(f.ms, ms(d))
	f.mu.Unlock()
}
func (f *fsyncRecorder) SetWALState(int, int64) {}

// ingestLayers times the write path's layers one call at a time on fresh
// documents of the writer's kind: parse, copy-on-write upsert and delete,
// log append with its fsync, and the replay a boot would run over that log.
func (r *runner) ingestLayers(base *gks.System, layer metrics) error {
	const adds, deletes = 48, 12
	rec := &fsyncRecorder{}
	dir := filepath.Join(r.dir, "layers.wal")
	l, err := wal.Open(dir, wal.Options{Metrics: rec})
	if err != nil {
		return err
	}
	var cur gks.Searcher = base
	var parse, upsert, remove, appendMs []float64
	var xmlBytes int64
	names := make([]string, adds)
	for i := 0; i < adds; i++ {
		// Numbers the writer never reaches, so each is an add.
		name, _, xml := ingestDoc(r.cfg.seed, 1<<19+i, 1)
		names[i] = name
		xmlBytes += int64(len(xml))
		t := time.Now()
		doc, err := gks.ParseDocumentString(xml, name)
		if err != nil {
			return err
		}
		parse = append(parse, ms(time.Since(t)))
		t = time.Now()
		next, _, err := gks.Upsert(cur, doc)
		if err != nil {
			return err
		}
		upsert = append(upsert, ms(time.Since(t)))
		cur = next
		t = time.Now()
		if _, err := l.Append(wal.OpUpsert, name, xml); err != nil {
			return err
		}
		appendMs = append(appendMs, ms(time.Since(t)))
	}
	for _, name := range names[:deletes] {
		t := time.Now()
		next, err := gks.Remove(cur, name)
		if err != nil {
			return err
		}
		remove = append(remove, ms(time.Since(t)))
		cur = next
		if _, err := l.Append(wal.OpDelete, name, ""); err != nil {
			return err
		}
	}
	_, walBytes := l.SegmentStats()
	if err := l.Close(); err != nil {
		return err
	}
	layer.set("xmltree.parse_ms_per_mib", ratio(sum(parse), mib(xmlBytes)), "ms/MiB")
	layer.setPct("index.upsert_ms_p50", upsert, 50, "ms")
	layer.setPct("index.delete_ms_p50", remove, 50, "ms")
	layer.setPct("wal.append_ms_p50", appendMs, 50, "ms")
	layer.setPct("wal.fsync_ms_p50", rec.ms, 50, "ms")
	layer.set("wal.bytes_per_user_byte", ratio(float64(walBytes), float64(xmlBytes)), "B/B")

	if l, err = wal.Open(dir, wal.Options{}); err != nil {
		return err
	}
	t := time.Now()
	_, replayed, err := gks.ReplayWAL(base, l)
	layer.setN("wal.replay_ms", ms(time.Since(t)), "ms", replayed)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return err
}
