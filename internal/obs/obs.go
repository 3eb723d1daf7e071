// Package obs provides stdlib-only serving-path observability for cmd/gksd:
// per-endpoint request counters, error counters keyed by status code, latency
// histograms, panic / load-shed counters, an in-flight gauge, and the
// response cache's hit/miss and invalidation/purge counters sourced from
// server.Handler. The whole registry is
// exported in Prometheus text exposition format (version 0.0.4) at
// GET /metrics, so the service can sit behind a stock Prometheus scrape
// config without importing any client library.
//
// This package is distinct from internal/metrics, which implements the
// paper's evaluation metrics (rank score, precision/recall); obs measures
// the HTTP serving layer itself.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultBuckets are the histogram upper bounds in seconds. They span 100µs
// to 10s — the paper's engine answers most queries in well under a
// millisecond at test scale, while production-scale indexes and best-effort
// threshold searches reach into the tens of milliseconds.
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// StageBuckets are the upper bounds of the per-stage search histograms.
// Stages run one to two orders of magnitude faster than whole requests, so
// the scale starts at 10µs.
var StageBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// SLEntryBuckets are the upper bounds of the S_L-size histogram: entry
// counts in decade steps, covering a single-instance keyword through
// production-scale merges.
var SLEntryBuckets = []float64{
	1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
}

// WALBatchBuckets are the upper bounds of the group-commit batch-size
// histogram: how many log records each fsync made durable. 1 means no
// batching happened (a lone writer); higher buckets show concurrent
// writers amortizing the flush.
var WALBatchBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
}

// Histogram is a fixed-bucket latency histogram. The zero value is unusable;
// create instances with newHistogram. Guarded by the Registry mutex.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []int64   // len(bounds)+1, last = +Inf
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *Histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.counts[i]++
	h.sum += seconds
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// endpointStats aggregates one endpoint's serving counters.
type endpointStats struct {
	requests int64
	errors   map[int]int64 // by HTTP status code, 4xx/5xx only
	latency  *Histogram
}

// Registry aggregates serving metrics for one process. All methods are safe
// for concurrent use. Create instances with NewRegistry.
type Registry struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	buckets   []float64

	panics   int64
	shed     int64
	inFlight int64

	reloadOK       int64
	reloadFail     int64
	snapshotGen    int64
	lastReloadUnix int64

	shardCount    int64
	shardPartials int64
	shardSearch   map[int]*Histogram // per-shard fan-out latency

	searchStages map[string]*Histogram // per-pipeline-stage search time
	slEntries    *Histogram            // |S_L| distribution across searches

	ingestOK   map[string]int64 // live-ingestion successes by op (upsert, delete)
	ingestFail map[string]int64 // live-ingestion failures by op
	ingestLat  *Histogram       // end-to-end mutation latency, persist included
	docs       int64            // live documents serving

	walEnabled     bool       // any WAL series observed; gates the WAL exposition block
	walFsyncDur    *Histogram // group-commit fsync latency
	walFsyncBatch  *Histogram // records made durable per fsync
	walSegments    int64      // log segment files on disk
	walBytes       int64      // log bytes on disk
	walReplays     int64      // boot/reload replays performed
	walReplayedRec int64      // total records applied across replays

	ckptOK          int64      // checkpoints that persisted and truncated
	ckptFail        int64      // checkpoints that failed (log retained)
	ckptDur         *Histogram // checkpoint persist+truncate latency
	ckptSegsRemoved int64      // total log segments truncated by checkpoints

	packEnabled bool       // any pack-maintenance series observed; gates the block
	repackTotal int64      // full repacks of the serving node table
	repackDur   *Histogram // repack+swap latency
	packBloat   float64    // serving index pack debt (delta+tombstone fraction)

	replicaEnabled   bool   // any replica series observed; gates the block
	replicaRole      string // "leader" or "follower"
	replicaStreamed  int64  // leader: records shipped to followers
	replicaSnapshots int64  // leader: snapshots served to joiners
	replicaApplied   int64  // follower: locally durable applied LSN
	replicaLeaderLSN int64  // follower: leader durable LSN last observed
	replicaReconn    int64  // follower: stream reconnects
	replicaInstalls  int64  // follower: snapshot installs

	segEnabled  bool       // any block-cache series observed; gates the block
	segHits     int64      // posting-block fetches served from the cache
	segMisses   int64      // posting-block fetches that went to disk
	segEvicts   int64      // blocks evicted to respect the byte capacity
	segResident int64      // decompressed block bytes resident in the cache
	segFetchDur *Histogram // disk block fetch latency (pread+CRC+inflate)

	cacheStats     func() (hits, misses int64)
	cacheEvictions func() (invalidated, purges int64)
}

// NewRegistry returns an empty registry using DefaultBuckets.
func NewRegistry() *Registry {
	return &Registry{
		endpoints: make(map[string]*endpointStats),
		buckets:   DefaultBuckets,
	}
}

// SetCacheStats wires a cumulative hit/miss source (typically
// server.Handler.CacheStats backed by cache.LRU.Stats) into the
// gks_cache_hits_total / gks_cache_misses_total series.
func (r *Registry) SetCacheStats(fn func() (hits, misses int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cacheStats = fn
}

// SetCacheEvictions wires the response cache's write-side counters
// (server.Handler.CacheEvictions) into gks_cache_invalidated_total —
// answers a one-document mutation dropped because the document holds one
// of their query's tokens — and gks_cache_purges_total — swaps that
// dropped every answer.
func (r *Registry) SetCacheEvictions(fn func() (invalidated, purges int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cacheEvictions = fn
}

func (r *Registry) endpoint(name string) *endpointStats {
	es, ok := r.endpoints[name]
	if !ok {
		es = &endpointStats{errors: make(map[int]int64), latency: newHistogram(r.buckets)}
		r.endpoints[name] = es
	}
	return es
}

// ObserveRequest records one completed request: the request counter, the
// latency histogram, and — for status >= 400 — the per-status error counter.
func (r *Registry) ObserveRequest(endpoint string, status int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	es := r.endpoint(endpoint)
	es.requests++
	es.latency.observe(d.Seconds())
	if status >= 400 {
		es.errors[status]++
	}
}

// IncPanic counts one recovered handler panic.
func (r *Registry) IncPanic() {
	r.mu.Lock()
	r.panics++
	r.mu.Unlock()
}

// IncShed counts one request rejected by the concurrency limiter.
func (r *Registry) IncShed() {
	r.mu.Lock()
	r.shed++
	r.mu.Unlock()
}

// AddInFlight adjusts the in-flight request gauge by delta (±1).
func (r *Registry) AddInFlight(delta int64) {
	r.mu.Lock()
	r.inFlight += delta
	r.mu.Unlock()
}

// SetSnapshotGeneration records the index snapshot generation currently
// serving; cmd/gksd seeds it at boot and ObserveReload advances it.
func (r *Registry) SetSnapshotGeneration(gen int64) {
	r.mu.Lock()
	r.snapshotGen = gen
	r.mu.Unlock()
}

// ObserveReload counts one snapshot reload attempt. On success the
// generation gauge moves to gen and the last-reload timestamp is set; on
// failure only the failure counter moves — the generation gauge keeps
// reporting the snapshot still serving.
func (r *Registry) ObserveReload(ok bool, gen int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.reloadOK++
		r.snapshotGen = gen
		r.lastReloadUnix = time.Now().Unix()
	} else {
		r.reloadFail++
	}
}

// SetShardCount records the number of index shards serving (1 for a
// single-index system); cmd/gksd sets it at boot and after every reload.
func (r *Registry) SetShardCount(n int) {
	r.mu.Lock()
	r.shardCount = int64(n)
	r.mu.Unlock()
}

// ObserveShardSearch records one shard's portion of a scatter-gather
// search fan-out. It satisfies shard.Metrics.
func (r *Registry) ObserveShardSearch(shard int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shardSearch == nil {
		r.shardSearch = make(map[int]*Histogram)
	}
	h, ok := r.shardSearch[shard]
	if !ok {
		h = newHistogram(r.buckets)
		r.shardSearch[shard] = h
	}
	h.observe(d.Seconds())
}

// IncShardPartial counts one search answered with partial results because
// at least one shard failed. It satisfies shard.Metrics.
func (r *Registry) IncShardPartial() {
	r.mu.Lock()
	r.shardPartials++
	r.mu.Unlock()
}

// ObserveSearchStage records the wall-clock seconds one search spent in a
// pipeline stage (merge, windows, lift, filter, rank). It satisfies the
// server's SearchObserver.
func (r *Registry) ObserveSearchStage(stage string, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.searchStages == nil {
		r.searchStages = make(map[string]*Histogram)
	}
	h, ok := r.searchStages[stage]
	if !ok {
		h = newHistogram(StageBuckets)
		r.searchStages[stage] = h
	}
	h.observe(seconds)
}

// ObserveSLSize records the merged-list length |S_L| of one search, so
// operators can correlate latency with merge volume. It satisfies the
// server's SearchObserver.
func (r *Registry) ObserveSLSize(entries int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slEntries == nil {
		r.slEntries = newHistogram(SLEntryBuckets)
	}
	r.slEntries.observe(float64(entries))
}

// ObserveIngest records one live document mutation (/admin/docs or a
// programmatic upsert/delete): the op/result counter and — successes and
// failures alike — the end-to-end latency, which includes the crash-safe
// persist that precedes the serving swap.
func (r *Registry) ObserveIngest(op string, ok bool, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		if r.ingestOK == nil {
			r.ingestOK = make(map[string]int64)
		}
		r.ingestOK[op]++
	} else {
		if r.ingestFail == nil {
			r.ingestFail = make(map[string]int64)
		}
		r.ingestFail[op]++
	}
	if r.ingestLat == nil {
		r.ingestLat = newHistogram(r.buckets)
	}
	r.ingestLat.observe(d.Seconds())
}

// SetDocs records the number of live documents currently serving; cmd/gksd
// seeds it at boot and every successful ingest or reload moves it.
func (r *Registry) SetDocs(n int) {
	r.mu.Lock()
	r.docs = int64(n)
	r.mu.Unlock()
}

// ObserveWALFsync records one group-commit flush: the fsync latency and
// how many log records it made durable at once. It satisfies wal.Metrics.
func (r *Registry) ObserveWALFsync(records int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.walEnabled = true
	if r.walFsyncDur == nil {
		r.walFsyncDur = newHistogram(r.buckets)
		r.walFsyncBatch = newHistogram(WALBatchBuckets)
	}
	r.walFsyncDur.observe(d.Seconds())
	r.walFsyncBatch.observe(float64(records))
}

// SetWALState records the log's on-disk footprint (segment files and total
// bytes); the WAL pushes it after every rotation, truncation and flush. It
// satisfies wal.Metrics.
func (r *Registry) SetWALState(segments int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.walEnabled = true
	r.walSegments = int64(segments)
	r.walBytes = bytes
}

// ObserveWALReplay records one boot or reload recovery pass and the number
// of log records it folded into the snapshot.
func (r *Registry) ObserveWALReplay(records int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.walEnabled = true
	r.walReplays++
	r.walReplayedRec += int64(records)
}

// ObserveCheckpoint records one background checkpoint: result, how many
// superseded log segments it truncated, and the persist+truncate latency.
func (r *Registry) ObserveCheckpoint(ok bool, removedSegments int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.walEnabled = true
	if ok {
		r.ckptOK++
		r.ckptSegsRemoved += int64(removedSegments)
	} else {
		r.ckptFail++
	}
	if r.ckptDur == nil {
		r.ckptDur = newHistogram(r.buckets)
	}
	r.ckptDur.observe(d.Seconds())
}

// ObserveRepack records one full repack of the serving node table — the
// amortization step that folds accumulated delta appends and tombstones
// back into a canonically packed index — and its latency (repack + swap).
func (r *Registry) ObserveRepack(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.packEnabled = true
	r.repackTotal++
	if r.repackDur == nil {
		r.repackDur = newHistogram(r.buckets)
	}
	r.repackDur.observe(d.Seconds())
}

// SetPackBloat publishes the serving index's pack debt: the fraction of
// the node table that is delta-appended past the canonical pack or
// tombstoned garbage. The checkpointer refreshes it on every checkpoint;
// it trends toward zero right after a repack.
func (r *Registry) SetPackBloat(ratio float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.packEnabled = true
	r.packBloat = ratio
}

// RepackStats reports the repack counter and the last-published pack
// debt, for tests and status endpoints.
func (r *Registry) RepackStats() (total int64, bloat float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repackTotal, r.packBloat
}

// SetReplicaRole marks this process's replication role ("leader" or
// "follower") and turns the replica exposition block on.
func (r *Registry) SetReplicaRole(role string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicaEnabled = true
	r.replicaRole = role
}

// AddReplicaStreamed counts records shipped to followers over the
// replication stream. It satisfies replica.LeaderMetrics.
func (r *Registry) AddReplicaStreamed(records int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicaEnabled = true
	r.replicaStreamed += int64(records)
}

// IncReplicaSnapshotServed counts snapshots served to joining
// followers. It satisfies replica.LeaderMetrics.
func (r *Registry) IncReplicaSnapshotServed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicaEnabled = true
	r.replicaSnapshots++
}

// SetReplicaLSNs records a follower's replication positions: the
// locally durable applied LSN and the leader's durable watermark as
// last observed. It satisfies replica.FollowerMetrics.
func (r *Registry) SetReplicaLSNs(applied, leaderDurable uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicaEnabled = true
	if v := int64(applied); v > r.replicaApplied {
		r.replicaApplied = v
	}
	if v := int64(leaderDurable); v > r.replicaLeaderLSN {
		r.replicaLeaderLSN = v
	}
}

// IncReplicaReconnect counts follower stream reconnects. It satisfies
// replica.FollowerMetrics.
func (r *Registry) IncReplicaReconnect() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicaEnabled = true
	r.replicaReconn++
}

// IncReplicaSnapshotInstall counts follower snapshot installs. It
// satisfies replica.FollowerMetrics.
func (r *Registry) IncReplicaSnapshotInstall() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicaEnabled = true
	r.replicaInstalls++
}

// BlockCacheHit counts a posting-block fetch served from the block cache.
// It satisfies segment.Metrics.
func (r *Registry) BlockCacheHit() {
	r.mu.Lock()
	r.segEnabled = true
	r.segHits++
	r.mu.Unlock()
}

// BlockCacheMiss counts a posting-block fetch that had to read disk. It
// satisfies segment.Metrics.
func (r *Registry) BlockCacheMiss() {
	r.mu.Lock()
	r.segEnabled = true
	r.segMisses++
	r.mu.Unlock()
}

// BlockCacheEvict counts a block evicted to respect the cache's byte
// capacity. It satisfies segment.Metrics.
func (r *Registry) BlockCacheEvict() {
	r.mu.Lock()
	r.segEnabled = true
	r.segEvicts++
	r.mu.Unlock()
}

// SetBlockCacheBytes records the decompressed block bytes resident in the
// cache — the memory actually spent on postings when serving a GKS4
// segment. It satisfies segment.Metrics.
func (r *Registry) SetBlockCacheBytes(n int64) {
	r.mu.Lock()
	r.segEnabled = true
	r.segResident = n
	r.mu.Unlock()
}

// ObserveBlockFetch records one disk block fetch (pread + CRC check +
// decompression) — cache misses only. It satisfies segment.Metrics.
func (r *Registry) ObserveBlockFetch(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.segEnabled = true
	if r.segFetchDur == nil {
		r.segFetchDur = newHistogram(StageBuckets)
	}
	r.segFetchDur.observe(d.Seconds())
}

// BlockCacheStats returns the block-cache counters and resident-bytes
// gauge for tests.
func (r *Registry) BlockCacheStats() (hits, misses, evicts, residentBytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.segHits, r.segMisses, r.segEvicts, r.segResident
}

// ReplicaStats returns the replication counters for tests: leader-side
// (streamed, snapshots) and follower-side (applied/leader LSNs,
// reconnects, installs).
func (r *Registry) ReplicaStats() (streamed, snapshots, applied, leaderLSN, reconnects, installs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replicaStreamed, r.replicaSnapshots, r.replicaApplied, r.replicaLeaderLSN, r.replicaReconn, r.replicaInstalls
}

// WALStats returns the WAL gauges and fsync count for tests.
func (r *Registry) WALStats() (fsyncs, segments, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.walFsyncDur != nil {
		fsyncs = r.walFsyncDur.count
	}
	return fsyncs, r.walSegments, r.walBytes
}

// WALReplayStats returns the replay counters for tests.
func (r *Registry) WALReplayStats() (replays, records int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.walReplays, r.walReplayedRec
}

// CheckpointStats returns the checkpoint counters for tests.
func (r *Registry) CheckpointStats() (ok, fail, removedSegments int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckptOK, r.ckptFail, r.ckptSegsRemoved
}

// IngestStats returns the aggregate ingest counters and the live-document
// gauge for tests.
func (r *Registry) IngestStats() (ok, fail, docs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.ingestOK {
		ok += n
	}
	for _, n := range r.ingestFail {
		fail += n
	}
	return ok, fail, r.docs
}

// SearchStageStats returns per-stage observation counts for tests.
func (r *Registry) SearchStageStats() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.searchStages))
	for stage, h := range r.searchStages {
		out[stage] = h.count
	}
	return out
}

// SLSizeCount returns the number of S_L-size observations for tests.
func (r *Registry) SLSizeCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slEntries == nil {
		return 0
	}
	return r.slEntries.count
}

// ShardStats returns the shard gauges/counters for tests.
func (r *Registry) ShardStats() (count, partials int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shardCount, r.shardPartials
}

// ReloadStats returns the reload counters and generation gauge for tests.
func (r *Registry) ReloadStats() (ok, fail, gen int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reloadOK, r.reloadFail, r.snapshotGen
}

// Snapshot returns aggregate counters for tests and logs.
func (r *Registry) Snapshot() (requests, errors, panics, shed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, es := range r.endpoints {
		requests += es.requests
		for _, n := range es.errors {
			errors += n
		}
	}
	return requests, errors, r.panics, r.shed
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every series in Prometheus text exposition format.
// Output is deterministic: endpoints and status codes are sorted.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()

	names := make([]string, 0, len(r.endpoints))
	for name := range r.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintln(w, "# HELP gks_http_requests_total Total HTTP requests by endpoint.")
	fmt.Fprintln(w, "# TYPE gks_http_requests_total counter")
	for _, name := range names {
		fmt.Fprintf(w, "gks_http_requests_total{endpoint=%q} %d\n", name, r.endpoints[name].requests)
	}

	fmt.Fprintln(w, "# HELP gks_http_errors_total HTTP responses with status >= 400, by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE gks_http_errors_total counter")
	for _, name := range names {
		es := r.endpoints[name]
		codes := make([]int, 0, len(es.errors))
		for code := range es.errors {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "gks_http_errors_total{endpoint=%q,code=\"%d\"} %d\n", name, code, es.errors[code])
		}
	}

	fmt.Fprintln(w, "# HELP gks_http_request_duration_seconds HTTP request latency by endpoint.")
	fmt.Fprintln(w, "# TYPE gks_http_request_duration_seconds histogram")
	for _, name := range names {
		h := r.endpoints[name].latency
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "gks_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, fmtFloat(bound), cum)
		}
		fmt.Fprintf(w, "gks_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(w, "gks_http_request_duration_seconds_sum{endpoint=%q} %s\n", name, fmtFloat(h.sum))
		fmt.Fprintf(w, "gks_http_request_duration_seconds_count{endpoint=%q} %d\n", name, h.count)
	}

	fmt.Fprintln(w, "# HELP gks_http_panics_total Recovered handler panics.")
	fmt.Fprintln(w, "# TYPE gks_http_panics_total counter")
	fmt.Fprintf(w, "gks_http_panics_total %d\n", r.panics)

	fmt.Fprintln(w, "# HELP gks_http_load_shed_total Requests rejected with 503 by the concurrency limiter.")
	fmt.Fprintln(w, "# TYPE gks_http_load_shed_total counter")
	fmt.Fprintf(w, "gks_http_load_shed_total %d\n", r.shed)

	fmt.Fprintln(w, "# HELP gks_http_in_flight Requests currently being served.")
	fmt.Fprintln(w, "# TYPE gks_http_in_flight gauge")
	fmt.Fprintf(w, "gks_http_in_flight %d\n", r.inFlight)

	fmt.Fprintln(w, "# HELP gks_snapshot_generation Index snapshot generation currently serving (1 = boot snapshot).")
	fmt.Fprintln(w, "# TYPE gks_snapshot_generation gauge")
	fmt.Fprintf(w, "gks_snapshot_generation %d\n", r.snapshotGen)

	fmt.Fprintln(w, "# HELP gks_snapshot_reloads_total Snapshot reload attempts by result.")
	fmt.Fprintln(w, "# TYPE gks_snapshot_reloads_total counter")
	fmt.Fprintf(w, "gks_snapshot_reloads_total{result=\"success\"} %d\n", r.reloadOK)
	fmt.Fprintf(w, "gks_snapshot_reloads_total{result=\"failure\"} %d\n", r.reloadFail)

	fmt.Fprintln(w, "# HELP gks_snapshot_last_reload_timestamp_seconds Unix time of the last successful reload (0 = never reloaded).")
	fmt.Fprintln(w, "# TYPE gks_snapshot_last_reload_timestamp_seconds gauge")
	fmt.Fprintf(w, "gks_snapshot_last_reload_timestamp_seconds %d\n", r.lastReloadUnix)

	fmt.Fprintln(w, "# HELP gks_shard_count Index shards serving (1 = unsharded).")
	fmt.Fprintln(w, "# TYPE gks_shard_count gauge")
	fmt.Fprintf(w, "gks_shard_count %d\n", r.shardCount)

	fmt.Fprintln(w, "# HELP gks_shard_partial_results_total Searches answered with partial results because a shard failed.")
	fmt.Fprintln(w, "# TYPE gks_shard_partial_results_total counter")
	fmt.Fprintf(w, "gks_shard_partial_results_total %d\n", r.shardPartials)

	fmt.Fprintln(w, "# HELP gks_docs Live documents currently serving.")
	fmt.Fprintln(w, "# TYPE gks_docs gauge")
	fmt.Fprintf(w, "gks_docs %d\n", r.docs)

	if len(r.ingestOK) > 0 || len(r.ingestFail) > 0 {
		ops := make(map[string]bool)
		for op := range r.ingestOK {
			ops[op] = true
		}
		for op := range r.ingestFail {
			ops[op] = true
		}
		sorted := make([]string, 0, len(ops))
		for op := range ops {
			sorted = append(sorted, op)
		}
		sort.Strings(sorted)
		fmt.Fprintln(w, "# HELP gks_ingest_total Live document mutations by op and result.")
		fmt.Fprintln(w, "# TYPE gks_ingest_total counter")
		for _, op := range sorted {
			fmt.Fprintf(w, "gks_ingest_total{op=%q,result=\"success\"} %d\n", op, r.ingestOK[op])
			fmt.Fprintf(w, "gks_ingest_total{op=%q,result=\"failure\"} %d\n", op, r.ingestFail[op])
		}
	}

	if r.ingestLat != nil {
		h := r.ingestLat
		fmt.Fprintln(w, "# HELP gks_ingest_duration_seconds Live document mutation latency, crash-safe persist included.")
		fmt.Fprintln(w, "# TYPE gks_ingest_duration_seconds histogram")
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "gks_ingest_duration_seconds_bucket{le=%q} %d\n", fmtFloat(bound), cum)
		}
		fmt.Fprintf(w, "gks_ingest_duration_seconds_bucket{le=\"+Inf\"} %d\n", h.count)
		fmt.Fprintf(w, "gks_ingest_duration_seconds_sum %s\n", fmtFloat(h.sum))
		fmt.Fprintf(w, "gks_ingest_duration_seconds_count %d\n", h.count)
	}

	if r.walEnabled {
		fmt.Fprintln(w, "# HELP gks_wal_segments Write-ahead-log segment files on disk.")
		fmt.Fprintln(w, "# TYPE gks_wal_segments gauge")
		fmt.Fprintf(w, "gks_wal_segments %d\n", r.walSegments)

		fmt.Fprintln(w, "# HELP gks_wal_size_bytes Write-ahead-log bytes on disk.")
		fmt.Fprintln(w, "# TYPE gks_wal_size_bytes gauge")
		fmt.Fprintf(w, "gks_wal_size_bytes %d\n", r.walBytes)

		fmt.Fprintln(w, "# HELP gks_wal_replays_total Boot/reload recovery passes over the log.")
		fmt.Fprintln(w, "# TYPE gks_wal_replays_total counter")
		fmt.Fprintf(w, "gks_wal_replays_total %d\n", r.walReplays)

		fmt.Fprintln(w, "# HELP gks_wal_replayed_records_total Log records folded into snapshots across all replays.")
		fmt.Fprintln(w, "# TYPE gks_wal_replayed_records_total counter")
		fmt.Fprintf(w, "gks_wal_replayed_records_total %d\n", r.walReplayedRec)

		fmt.Fprintln(w, "# HELP gks_wal_checkpoints_total Background checkpoints by result.")
		fmt.Fprintln(w, "# TYPE gks_wal_checkpoints_total counter")
		fmt.Fprintf(w, "gks_wal_checkpoints_total{result=\"success\"} %d\n", r.ckptOK)
		fmt.Fprintf(w, "gks_wal_checkpoints_total{result=\"failure\"} %d\n", r.ckptFail)

		fmt.Fprintln(w, "# HELP gks_wal_checkpoint_segments_removed_total Log segments truncated by checkpoints.")
		fmt.Fprintln(w, "# TYPE gks_wal_checkpoint_segments_removed_total counter")
		fmt.Fprintf(w, "gks_wal_checkpoint_segments_removed_total %d\n", r.ckptSegsRemoved)
	}

	if r.packEnabled {
		fmt.Fprintln(w, "# HELP gks_repack_total Full repacks of the serving node table.")
		fmt.Fprintln(w, "# TYPE gks_repack_total counter")
		fmt.Fprintf(w, "gks_repack_total %d\n", r.repackTotal)

		fmt.Fprintln(w, "# HELP gks_pack_bloat_ratio Fraction of the node table that is delta-appended or tombstoned.")
		fmt.Fprintln(w, "# TYPE gks_pack_bloat_ratio gauge")
		fmt.Fprintf(w, "gks_pack_bloat_ratio %s\n", fmtFloat(r.packBloat))
	}

	if r.replicaEnabled {
		if r.replicaRole != "" {
			fmt.Fprintln(w, "# HELP gks_replica_role Replication role of this process (1 = active).")
			fmt.Fprintln(w, "# TYPE gks_replica_role gauge")
			fmt.Fprintf(w, "gks_replica_role{role=%q} 1\n", r.replicaRole)
		}

		fmt.Fprintln(w, "# HELP gks_replica_streamed_records_total WAL records shipped to followers.")
		fmt.Fprintln(w, "# TYPE gks_replica_streamed_records_total counter")
		fmt.Fprintf(w, "gks_replica_streamed_records_total %d\n", r.replicaStreamed)

		fmt.Fprintln(w, "# HELP gks_replica_snapshots_served_total Snapshots served to joining followers.")
		fmt.Fprintln(w, "# TYPE gks_replica_snapshots_served_total counter")
		fmt.Fprintf(w, "gks_replica_snapshots_served_total %d\n", r.replicaSnapshots)

		fmt.Fprintln(w, "# HELP gks_replica_applied_lsn Locally durable applied LSN (follower).")
		fmt.Fprintln(w, "# TYPE gks_replica_applied_lsn gauge")
		fmt.Fprintf(w, "gks_replica_applied_lsn %d\n", r.replicaApplied)

		fmt.Fprintln(w, "# HELP gks_replica_leader_durable_lsn Leader durable LSN as last observed (follower).")
		fmt.Fprintln(w, "# TYPE gks_replica_leader_durable_lsn gauge")
		fmt.Fprintf(w, "gks_replica_leader_durable_lsn %d\n", r.replicaLeaderLSN)

		fmt.Fprintln(w, "# HELP gks_replica_lag_records Replication lag in records (leader durable - applied).")
		fmt.Fprintln(w, "# TYPE gks_replica_lag_records gauge")
		lag := r.replicaLeaderLSN - r.replicaApplied
		if lag < 0 {
			lag = 0
		}
		fmt.Fprintf(w, "gks_replica_lag_records %d\n", lag)

		fmt.Fprintln(w, "# HELP gks_replica_reconnects_total Follower stream reconnects.")
		fmt.Fprintln(w, "# TYPE gks_replica_reconnects_total counter")
		fmt.Fprintf(w, "gks_replica_reconnects_total %d\n", r.replicaReconn)

		fmt.Fprintln(w, "# HELP gks_replica_snapshot_installs_total Follower snapshot installs.")
		fmt.Fprintln(w, "# TYPE gks_replica_snapshot_installs_total counter")
		fmt.Fprintf(w, "gks_replica_snapshot_installs_total %d\n", r.replicaInstalls)
	}

	if r.segEnabled {
		fmt.Fprintln(w, "# HELP gks_segment_block_cache_hits_total Posting-block fetches served from the block cache.")
		fmt.Fprintln(w, "# TYPE gks_segment_block_cache_hits_total counter")
		fmt.Fprintf(w, "gks_segment_block_cache_hits_total %d\n", r.segHits)

		fmt.Fprintln(w, "# HELP gks_segment_block_cache_misses_total Posting-block fetches read from disk.")
		fmt.Fprintln(w, "# TYPE gks_segment_block_cache_misses_total counter")
		fmt.Fprintf(w, "gks_segment_block_cache_misses_total %d\n", r.segMisses)

		fmt.Fprintln(w, "# HELP gks_segment_block_cache_evictions_total Blocks evicted to respect the cache byte capacity.")
		fmt.Fprintln(w, "# TYPE gks_segment_block_cache_evictions_total counter")
		fmt.Fprintf(w, "gks_segment_block_cache_evictions_total %d\n", r.segEvicts)

		fmt.Fprintln(w, "# HELP gks_segment_block_cache_resident_bytes Decompressed posting-block bytes resident in the cache.")
		fmt.Fprintln(w, "# TYPE gks_segment_block_cache_resident_bytes gauge")
		fmt.Fprintf(w, "gks_segment_block_cache_resident_bytes %d\n", r.segResident)

		if r.segFetchDur != nil {
			h := r.segFetchDur
			fmt.Fprintln(w, "# HELP gks_segment_block_fetch_duration_seconds Disk block fetch latency (pread + CRC + decompress).")
			fmt.Fprintln(w, "# TYPE gks_segment_block_fetch_duration_seconds histogram")
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i]
				fmt.Fprintf(w, "gks_segment_block_fetch_duration_seconds_bucket{le=%q} %d\n", fmtFloat(bound), cum)
			}
			fmt.Fprintf(w, "gks_segment_block_fetch_duration_seconds_bucket{le=\"+Inf\"} %d\n", h.count)
			fmt.Fprintf(w, "gks_segment_block_fetch_duration_seconds_sum %s\n", fmtFloat(h.sum))
			fmt.Fprintf(w, "gks_segment_block_fetch_duration_seconds_count %d\n", h.count)
		}
	}

	if r.walFsyncDur != nil {
		h := r.walFsyncDur
		fmt.Fprintln(w, "# HELP gks_wal_fsync_duration_seconds Group-commit fsync latency.")
		fmt.Fprintln(w, "# TYPE gks_wal_fsync_duration_seconds histogram")
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "gks_wal_fsync_duration_seconds_bucket{le=%q} %d\n", fmtFloat(bound), cum)
		}
		fmt.Fprintf(w, "gks_wal_fsync_duration_seconds_bucket{le=\"+Inf\"} %d\n", h.count)
		fmt.Fprintf(w, "gks_wal_fsync_duration_seconds_sum %s\n", fmtFloat(h.sum))
		fmt.Fprintf(w, "gks_wal_fsync_duration_seconds_count %d\n", h.count)

		h = r.walFsyncBatch
		fmt.Fprintln(w, "# HELP gks_wal_fsync_batch_records Log records made durable per fsync (group-commit batch size).")
		fmt.Fprintln(w, "# TYPE gks_wal_fsync_batch_records histogram")
		cum = 0
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "gks_wal_fsync_batch_records_bucket{le=%q} %d\n", fmtFloat(bound), cum)
		}
		fmt.Fprintf(w, "gks_wal_fsync_batch_records_bucket{le=\"+Inf\"} %d\n", h.count)
		fmt.Fprintf(w, "gks_wal_fsync_batch_records_sum %s\n", fmtFloat(h.sum))
		fmt.Fprintf(w, "gks_wal_fsync_batch_records_count %d\n", h.count)
	}

	if r.ckptDur != nil {
		h := r.ckptDur
		fmt.Fprintln(w, "# HELP gks_wal_checkpoint_duration_seconds Checkpoint persist+truncate latency.")
		fmt.Fprintln(w, "# TYPE gks_wal_checkpoint_duration_seconds histogram")
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "gks_wal_checkpoint_duration_seconds_bucket{le=%q} %d\n", fmtFloat(bound), cum)
		}
		fmt.Fprintf(w, "gks_wal_checkpoint_duration_seconds_bucket{le=\"+Inf\"} %d\n", h.count)
		fmt.Fprintf(w, "gks_wal_checkpoint_duration_seconds_sum %s\n", fmtFloat(h.sum))
		fmt.Fprintf(w, "gks_wal_checkpoint_duration_seconds_count %d\n", h.count)
	}

	if r.repackDur != nil {
		h := r.repackDur
		fmt.Fprintln(w, "# HELP gks_repack_duration_seconds Full node-table repack + swap latency.")
		fmt.Fprintln(w, "# TYPE gks_repack_duration_seconds histogram")
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "gks_repack_duration_seconds_bucket{le=%q} %d\n", fmtFloat(bound), cum)
		}
		fmt.Fprintf(w, "gks_repack_duration_seconds_bucket{le=\"+Inf\"} %d\n", h.count)
		fmt.Fprintf(w, "gks_repack_duration_seconds_sum %s\n", fmtFloat(h.sum))
		fmt.Fprintf(w, "gks_repack_duration_seconds_count %d\n", h.count)
	}

	if len(r.shardSearch) > 0 {
		shardIDs := make([]int, 0, len(r.shardSearch))
		for id := range r.shardSearch {
			shardIDs = append(shardIDs, id)
		}
		sort.Ints(shardIDs)
		fmt.Fprintln(w, "# HELP gks_shard_search_duration_seconds Per-shard search latency within scatter-gather fan-outs.")
		fmt.Fprintln(w, "# TYPE gks_shard_search_duration_seconds histogram")
		for _, id := range shardIDs {
			h := r.shardSearch[id]
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i]
				fmt.Fprintf(w, "gks_shard_search_duration_seconds_bucket{shard=\"%d\",le=%q} %d\n",
					id, fmtFloat(bound), cum)
			}
			fmt.Fprintf(w, "gks_shard_search_duration_seconds_bucket{shard=\"%d\",le=\"+Inf\"} %d\n", id, h.count)
			fmt.Fprintf(w, "gks_shard_search_duration_seconds_sum{shard=\"%d\"} %s\n", id, fmtFloat(h.sum))
			fmt.Fprintf(w, "gks_shard_search_duration_seconds_count{shard=\"%d\"} %d\n", id, h.count)
		}
	}

	if len(r.searchStages) > 0 {
		stages := make([]string, 0, len(r.searchStages))
		for stage := range r.searchStages {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		fmt.Fprintln(w, "# HELP gks_search_stage_seconds Wall-clock time per search pipeline stage (merge, windows, lift, filter, rank).")
		fmt.Fprintln(w, "# TYPE gks_search_stage_seconds histogram")
		for _, stage := range stages {
			h := r.searchStages[stage]
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i]
				fmt.Fprintf(w, "gks_search_stage_seconds_bucket{stage=%q,le=%q} %d\n",
					stage, fmtFloat(bound), cum)
			}
			fmt.Fprintf(w, "gks_search_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, h.count)
			fmt.Fprintf(w, "gks_search_stage_seconds_sum{stage=%q} %s\n", stage, fmtFloat(h.sum))
			fmt.Fprintf(w, "gks_search_stage_seconds_count{stage=%q} %d\n", stage, h.count)
		}
	}

	if r.slEntries != nil {
		h := r.slEntries
		fmt.Fprintln(w, "# HELP gks_search_sl_entries Merged keyword-instance list size |S_L| per search.")
		fmt.Fprintln(w, "# TYPE gks_search_sl_entries histogram")
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "gks_search_sl_entries_bucket{le=%q} %d\n", fmtFloat(bound), cum)
		}
		fmt.Fprintf(w, "gks_search_sl_entries_bucket{le=\"+Inf\"} %d\n", h.count)
		fmt.Fprintf(w, "gks_search_sl_entries_sum %s\n", fmtFloat(h.sum))
		fmt.Fprintf(w, "gks_search_sl_entries_count %d\n", h.count)
	}

	if r.cacheStats != nil {
		hits, misses := r.cacheStats()
		fmt.Fprintln(w, "# HELP gks_cache_hits_total Response-cache hits.")
		fmt.Fprintln(w, "# TYPE gks_cache_hits_total counter")
		fmt.Fprintf(w, "gks_cache_hits_total %d\n", hits)
		fmt.Fprintln(w, "# HELP gks_cache_misses_total Response-cache misses.")
		fmt.Fprintln(w, "# TYPE gks_cache_misses_total counter")
		fmt.Fprintf(w, "gks_cache_misses_total %d\n", misses)
	}
	if r.cacheEvictions != nil {
		invalidated, purges := r.cacheEvictions()
		fmt.Fprintln(w, "# HELP gks_cache_invalidated_total Cached responses dropped by a document mutation that could change them.")
		fmt.Fprintln(w, "# TYPE gks_cache_invalidated_total counter")
		fmt.Fprintf(w, "gks_cache_invalidated_total %d\n", invalidated)
		fmt.Fprintln(w, "# HELP gks_cache_purges_total Swaps that dropped every cached response.")
		fmt.Fprintln(w, "# TYPE gks_cache_purges_total counter")
		fmt.Fprintf(w, "gks_cache_purges_total %d\n", purges)
	}
}

// Handler serves the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
