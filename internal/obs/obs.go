// Package obs is gksd's telemetry: every series GET /metrics serves, in
// Prometheus text exposition format 0.0.4, with no client library.
//
// A metric is one declaration in NewRegistry (kind, name, help, histogram
// bounds, label names) and one call where the event happens: r.at(name,
// labelValues...) followed by add, set, max or observe. The exported methods
// are such calls under the names the consumer interfaces (wal.Metrics,
// segment.Metrics, shard.Metrics, replica.LeaderMetrics/FollowerMetrics,
// server.SearchObserver) and the benchmark harness expect; those interfaces
// keep the leaf packages from importing this one. A nil *Registry records nothing.
//
// Exposition order is declaration order; a family's series are ordered by
// label values (labelLess). Families declared with the same group are written
// once any of them has been touched, so a deployment without a WAL, a packed
// index, replication or a GKS4 segment exports none of their series; a family
// declared with a nil group is written once it has been touched itself.
// testdata/metrics.golden lists every series in its exact format.
package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram upper bounds in seconds. Requests span 100µs (most queries at test
// scale) to 10s (best-effort searches on production-scale indexes); stages
// and block fetches are one to two orders of magnitude faster.
var (
	requestBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	stageBuckets = []float64{0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
)

// The three kinds of metric, named as the exposition's TYPE line names them.
const counter, gauge, histogram = "counter", "gauge", "histogram"

// A family is one declared metric and its series, one per label-value tuple.
type family struct {
	kind, name, help string
	float            bool                         // a gauge whose series hold math.Float64bits
	bounds           []float64                    // histogram: ascending upper bounds, the last +Inf
	labels           []string                     // label names, in exposition order
	group            *atomic.Bool                 // set once any family sharing it has been touched
	series           sync.Map                     // label values joined with NUL -> *series
	fn               atomic.Pointer[func() int64] // when set, supplies the one unlabelled value
}

// A series is one exposition line, or one histogram's block of them.
type series struct {
	f      *family
	values []string     // label values, parallel to f.labels
	n      atomic.Int64 // counter or gauge value
	mu     sync.Mutex   // guards the histogram state below
	counts []int64      // per bound, not cumulative
	sum    float64
}

// Registry holds one process's metrics; it is safe for concurrent use.
type Registry struct {
	families []*family // declaration order = exposition order
	byName   map[string]*family
}

// NewRegistry declares every metric gksd and gksrouter export.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]*family)}
	var core, ingest, walG, pack, replica, seg, fsync, hitMiss, evictions atomic.Bool
	core.Store(true)
	lag := func() int64 {
		return max(0, r.at("gks_replica_leader_durable_lsn").n.Load()-r.at("gks_replica_applied_lsn").n.Load())
	}
	r.declare(&core, counter, "gks_http_requests_total", "Total HTTP requests by endpoint.", nil, "endpoint")
	r.declare(&core, counter, "gks_http_errors_total", "HTTP responses with status >= 400, by endpoint and status code.", nil, "endpoint", "code")
	r.declare(&core, histogram, "gks_http_request_duration_seconds", "HTTP request latency by endpoint.", requestBuckets, "endpoint")
	r.declare(&core, counter, "gks_http_panics_total", "Recovered handler panics.", nil)
	r.declare(&core, counter, "gks_http_load_shed_total", "Requests rejected with 503 by the concurrency limiter.", nil)
	r.declare(&core, gauge, "gks_http_in_flight", "Requests currently being served.", nil)
	r.declare(&core, gauge, "gks_snapshot_generation", "Index snapshot generation currently serving (1 = boot snapshot).", nil)
	r.declare(&core, counter, "gks_snapshot_reloads_total", "Snapshot reload attempts by result.", nil, "result")
	r.declare(&core, gauge, "gks_snapshot_last_reload_timestamp_seconds", "Unix time of the last successful reload (0 = never reloaded).", nil)
	r.declare(&core, gauge, "gks_shard_count", "Index shards serving (1 = unsharded).", nil)
	r.declare(&core, counter, "gks_shard_partial_results_total", "Searches answered with partial results because a shard failed.", nil)
	r.declare(&core, gauge, "gks_docs", "Live documents currently serving.", nil)
	r.declare(&ingest, counter, "gks_ingest_total", "Live document mutations by op and result.", nil, "op", "result")
	r.declare(&ingest, histogram, "gks_ingest_duration_seconds", "Live document mutation latency, crash-safe persist included.", requestBuckets)
	r.declare(&walG, gauge, "gks_wal_segments", "Write-ahead-log segment files on disk.", nil)
	r.declare(&walG, gauge, "gks_wal_size_bytes", "Write-ahead-log bytes on disk.", nil)
	r.declare(&walG, counter, "gks_wal_replays_total", "Boot/reload recovery passes over the log.", nil)
	r.declare(&walG, counter, "gks_wal_replayed_records_total", "Log records folded into snapshots across all replays.", nil)
	r.declare(&walG, counter, "gks_wal_checkpoints_total", "Background checkpoints by result.", nil, "result")
	r.declare(&walG, counter, "gks_wal_checkpoint_segments_removed_total", "Log segments truncated by checkpoints.", nil)
	r.declare(&pack, counter, "gks_repack_total", "Full repacks of the serving node table.", nil)
	r.declare(&pack, gauge, "gks_pack_bloat_ratio", "Fraction of the node table's rows that are tombstoned.", nil).float = true
	r.declare(nil, gauge, "gks_replica_role", "Replication role of this process (1 = active).", nil, "role")
	r.declare(&replica, counter, "gks_replica_streamed_records_total", "WAL records shipped to followers.", nil)
	r.declare(&replica, counter, "gks_replica_snapshots_served_total", "Snapshots served to joining followers.", nil)
	r.declare(&replica, gauge, "gks_replica_applied_lsn", "Locally durable applied LSN (follower).", nil)
	r.declare(&replica, gauge, "gks_replica_leader_durable_lsn", "Leader durable LSN as last observed (follower).", nil)
	r.declare(&replica, gauge, "gks_replica_lag_records", "Replication lag in records (leader durable - applied).", nil).fn.Store(&lag)
	r.declare(&replica, counter, "gks_replica_reconnects_total", "Follower stream reconnects.", nil)
	r.declare(&replica, counter, "gks_replica_snapshot_installs_total", "Follower snapshot installs.", nil)
	r.declare(&seg, counter, "gks_segment_block_cache_hits_total", "Posting-block fetches served from the block cache.", nil)
	r.declare(&seg, counter, "gks_segment_block_cache_misses_total", "Posting-block fetches read from disk.", nil)
	r.declare(&seg, counter, "gks_segment_block_cache_evictions_total", "Blocks evicted to respect the cache byte capacity.", nil)
	r.declare(&seg, gauge, "gks_segment_block_cache_resident_bytes", "Posting-block bytes resident in the cache.", nil)
	r.declare(nil, histogram, "gks_segment_block_fetch_duration_seconds", "Disk block fetch latency (pread + CRC; GKS4 version 1 adds inflate).", stageBuckets)
	r.declare(&fsync, histogram, "gks_wal_fsync_duration_seconds", "Group-commit fsync latency.", requestBuckets)
	r.declare(&fsync, histogram, "gks_wal_fsync_batch_records", "Log records made durable per fsync (group-commit batch size).", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	r.declare(nil, histogram, "gks_wal_checkpoint_duration_seconds", "Checkpoint persist+truncate latency.", requestBuckets)
	r.declare(nil, histogram, "gks_repack_duration_seconds", "Full node-table repack + swap latency.", requestBuckets)
	r.declare(nil, histogram, "gks_shard_search_duration_seconds", "Per-shard search latency within scatter-gather fan-outs.", requestBuckets, "shard")
	r.declare(nil, histogram, "gks_search_stage_seconds", "Wall-clock time per search pipeline stage (merge, windows, lift, filter, rank).", stageBuckets, "stage")
	r.declare(nil, histogram, "gks_search_sl_entries", "Merged keyword-instance list size |S_L| per search.", []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7})
	r.declare(&hitMiss, counter, "gks_cache_hits_total", "Response-cache hits.", nil)
	r.declare(&hitMiss, counter, "gks_cache_misses_total", "Response-cache misses.", nil)
	r.declare(&evictions, counter, "gks_cache_invalidated_total", "Cached responses dropped by a document mutation that could change them.", nil)
	r.declare(&evictions, counter, "gks_cache_purges_total", "Swaps that dropped every cached response.", nil)
	for _, name := range []string{"gks_snapshot_reloads_total", "gks_wal_checkpoints_total"} {
		r.at(name, "success") // both results read 0 from the start, so a rate()
		r.at(name, "failure") // over the failures of a healthy process is 0, not absent
	}
	return r
}

// declare appends a family to the exposition; a nil group makes it a group of
// its own. An unlabelled family has its series, reading 0, from birth.
func (r *Registry) declare(group *atomic.Bool, kind, name, help string, bounds []float64, labels ...string) *family {
	if group == nil {
		group = new(atomic.Bool)
	}
	f := &family{kind: kind, name: name, help: help, labels: labels, group: group}
	if kind == histogram {
		f.bounds = append(append(f.bounds, bounds...), math.Inf(1))
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	if len(labels) == 0 {
		r.at(name)
	}
	return f
}

// at returns the named family's series with the given label values, creating
// it (which touches nothing) on first use. A nil registry hands out a series
// of its own that nobody reads, so recording into it does nothing.
func (r *Registry) at(name string, values ...string) *series {
	if r == nil {
		return &series{f: &family{group: new(atomic.Bool)}, counts: make([]int64, 1)}
	}
	f := r.byName[name]
	if f == nil || len(values) != len(f.labels) {
		panic("obs: NewRegistry declares no " + name + " with that many labels")
	}
	key := strings.Join(values, "\x00")
	s, ok := f.series.Load(key)
	if !ok {
		fresh := &series{f: f, values: append([]string(nil), values...), counts: make([]int64, len(f.bounds))}
		s, _ = f.series.LoadOrStore(key, fresh)
	}
	return s.(*series)
}

// touch makes the series' group appear in the exposition.
func (s *series) touch() *series {
	if !s.f.group.Load() {
		s.f.group.Store(true)
	}
	return s
}
func (s *series) add(delta int64) { s.touch().n.Add(delta) }
func (s *series) set(v int64)     { s.touch().n.Store(v) }

// max raises the value to v and never lowers it.
func (s *series) max(v int64) {
	for cur := s.touch().n.Load(); v > cur && !s.n.CompareAndSwap(cur, v); cur = s.n.Load() {
	}
}

// observe adds one histogram observation; a value on a bound is in its bucket.
func (s *series) observe(v float64) {
	s.touch().mu.Lock()
	s.counts[sort.SearchFloat64s(s.f.bounds, v)]++
	s.sum += v
	s.mu.Unlock()
}

var result = map[bool]string{true: "success", false: "failure"}

// The HTTP middleware's sink (server.WithMetrics, WithRecovery, WithLimit): a
// completed request, also an error when status >= 400; a recovered panic; a
// request the limiter shed; the in-flight gauge (delta is ±1).
func (r *Registry) ObserveRequest(endpoint string, status int, d time.Duration) {
	r.at("gks_http_requests_total", endpoint).add(1)
	r.at("gks_http_request_duration_seconds", endpoint).observe(d.Seconds())
	if status >= 400 {
		r.at("gks_http_errors_total", endpoint, strconv.Itoa(status)).add(1)
	}
}
func (r *Registry) IncPanic()               { r.at("gks_http_panics_total").add(1) }
func (r *Registry) IncShed()                { r.at("gks_http_load_shed_total").add(1) }
func (r *Registry) AddInFlight(delta int64) { r.at("gks_http_in_flight").add(delta) }

// What is serving: seeded at boot, moved by reloads, mutations and installs.
func (r *Registry) SetSnapshotGeneration(gen int64) { r.at("gks_snapshot_generation").set(gen) }
func (r *Registry) SetShardCount(n int)             { r.at("gks_shard_count").set(int64(n)) }
func (r *Registry) SetDocs(n int)                   { r.at("gks_docs").set(int64(n)) }

// ObserveReload counts one snapshot reload attempt. A failure moves neither
// the generation nor the last-reload time: the old snapshot is still serving.
func (r *Registry) ObserveReload(ok bool, gen int64) {
	r.at("gks_snapshot_reloads_total", result[ok]).add(1)
	if ok {
		r.SetSnapshotGeneration(gen)
		r.at("gks_snapshot_last_reload_timestamp_seconds").set(time.Now().Unix())
	}
}

// shard.Metrics: one shard's part of a scatter-gather fan-out, and a search
// answered without a failed shard's part.
func (r *Registry) ObserveShardSearch(shard int, d time.Duration) {
	r.at("gks_shard_search_duration_seconds", strconv.Itoa(shard)).observe(d.Seconds())
}
func (r *Registry) IncShardPartial() { r.at("gks_shard_partial_results_total").add(1) }

// server.SearchObserver: the seconds a search spent in one pipeline stage and
// its merged-list length |S_L|, which the paper's cost model is linear in.
func (r *Registry) ObserveSearchStage(stage string, seconds float64) {
	r.at("gks_search_stage_seconds", stage).observe(seconds)
}
func (r *Registry) ObserveSLSize(n int) { r.at("gks_search_sl_entries").observe(float64(n)) }

// ObserveIngest records one live document mutation and its end-to-end
// latency, which includes the persist that precedes the serving swap.
func (r *Registry) ObserveIngest(op string, ok bool, d time.Duration) {
	r.at("gks_ingest_total", op, result[!ok]).add(0) // an op seen once reports both results
	r.at("gks_ingest_total", op, result[ok]).add(1)
	r.at("gks_ingest_duration_seconds").observe(d.Seconds())
}

// wal.Metrics: one group-commit flush (its latency and the records it made
// durable at once) and the log's on-disk footprint.
func (r *Registry) ObserveWALFsync(records int, d time.Duration) {
	r.at("gks_wal_segments").add(0) // a flush makes the WAL group appear too
	r.at("gks_wal_fsync_duration_seconds").observe(d.Seconds())
	r.at("gks_wal_fsync_batch_records").observe(float64(records))
}
func (r *Registry) SetWALState(segments int, bytes int64) {
	r.at("gks_wal_segments").set(int64(segments))
	r.at("gks_wal_size_bytes").set(bytes)
}

// ObserveWALReplay records one boot or reload pass over the log's records.
func (r *Registry) ObserveWALReplay(records int) {
	r.at("gks_wal_replays_total").add(1)
	r.at("gks_wal_replayed_records_total").add(int64(records))
}

// ObserveCheckpoint records one background checkpoint: its result, the log
// segments it truncated (a failed one truncates none) and its latency.
func (r *Registry) ObserveCheckpoint(ok bool, removedSegments int, d time.Duration) {
	r.at("gks_wal_checkpoints_total", result[ok]).add(1)
	if ok {
		r.at("gks_wal_checkpoint_segments_removed_total").add(int64(removedSegments))
	}
	r.at("gks_wal_checkpoint_duration_seconds").observe(d.Seconds())
}

// Pack maintenance: one repack of the serving node table (compaction + swap)
// and the debt it works off, the tombstoned share of the table's rows.
func (r *Registry) ObserveRepack(d time.Duration) {
	r.at("gks_repack_total").add(1)
	r.at("gks_repack_duration_seconds").observe(d.Seconds())
}
func (r *Registry) SetPackBloat(ratio float64) {
	r.at("gks_pack_bloat_ratio").set(int64(math.Float64bits(ratio)))
}

// Replication: the role ("leader" or "follower"), replica.LeaderMetrics and
// replica.FollowerMetrics. A follower's positions (its durable applied LSN,
// the leader's as last observed) only move forward.
func (r *Registry) SetReplicaRole(role string) {
	r.at("gks_replica_streamed_records_total").add(0) // a role makes the replica group appear too
	r.at("gks_replica_role", role).set(1)
}
func (r *Registry) AddReplicaStreamed(records int) {
	r.at("gks_replica_streamed_records_total").add(int64(records))
}
func (r *Registry) IncReplicaSnapshotServed() { r.at("gks_replica_snapshots_served_total").add(1) }
func (r *Registry) SetReplicaLSNs(applied, leaderDurable uint64) {
	r.at("gks_replica_applied_lsn").max(int64(applied))
	r.at("gks_replica_leader_durable_lsn").max(int64(leaderDurable))
}
func (r *Registry) IncReplicaReconnect()       { r.at("gks_replica_reconnects_total").add(1) }
func (r *Registry) IncReplicaSnapshotInstall() { r.at("gks_replica_snapshot_installs_total").add(1) }

// segment.Metrics: the posting-block cache of a GKS4 segment. Resident bytes
// are block payload bytes as stored; a fetch is pread + CRC, misses only.
func (r *Registry) BlockCacheHit()             { r.at("gks_segment_block_cache_hits_total").add(1) }
func (r *Registry) BlockCacheMiss()            { r.at("gks_segment_block_cache_misses_total").add(1) }
func (r *Registry) BlockCacheEvict()           { r.at("gks_segment_block_cache_evictions_total").add(1) }
func (r *Registry) SetBlockCacheBytes(n int64) { r.at("gks_segment_block_cache_resident_bytes").set(n) }
func (r *Registry) ObserveBlockFetch(d time.Duration) {
	r.at("gks_segment_block_cache_misses_total").add(0) // a fetch makes the block-cache group appear too
	r.at("gks_segment_block_fetch_duration_seconds").observe(d.Seconds())
}

// SetCacheStats and SetCacheEvictions wire in the response cache's cumulative
// counts (server.Handler.CacheStats, CacheEvictions): hits and misses; answers
// a mutated document could change, and swaps that dropped every answer.
func (r *Registry) SetCacheStats(fn func() (hits, misses int64)) {
	r.callback(fn, "gks_cache_hits_total", "gks_cache_misses_total")
}
func (r *Registry) SetCacheEvictions(fn func() (invalidated, purges int64)) {
	r.callback(fn, "gks_cache_invalidated_total", "gks_cache_purges_total")
}

// callback makes fn's two results the values of the two named families and
// makes their group appear.
func (r *Registry) callback(fn func() (int64, int64), names ...string) {
	for i, name := range names {
		one := func() int64 { a, b := fn(); return [2]int64{a, b}[i] }
		r.at(name).touch().f.fn.Store(&one)
	}
}

// labelLess orders two values of one label: integers numerically (shard 2
// before 10), a result's success before its failure, the rest as strings.
func labelLess(a, b string) bool {
	x, errA := strconv.Atoi(a)
	y, errB := strconv.Atoi(b)
	switch {
	case errA == nil && errB == nil:
		return x < y
	case a == "success" && b == "failure", a == "failure" && b == "success":
		return a == "success"
	}
	return a < b
}

// braces renders `name="value"` pairs as an exposition label set.
func braces(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// write renders the family, touched or not: HELP, TYPE, then its series in
// labelLess order. The only lock it takes is a histogram's own, to copy it.
func (f *family) write(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
	if fn := f.fn.Load(); fn != nil {
		fmt.Fprintf(b, "%s %d\n", f.name, (*fn)())
		return
	}
	var all []*series
	f.series.Range(func(_, s any) bool { all = append(all, s.(*series)); return true })
	sort.Slice(all, func(i, j int) bool {
		for k, v := range all[i].values {
			if w := all[j].values[k]; v != w {
				return labelLess(v, w)
			}
		}
		return false
	})
	for _, s := range all {
		pairs := make([]string, len(s.values), len(s.values)+1)
		for k, v := range s.values {
			pairs[k] = f.labels[k] + "=" + strconv.Quote(v)
		}
		switch {
		case f.kind == histogram:
			s.mu.Lock()
			counts, sum, cum := append([]int64(nil), s.counts...), s.sum, int64(0)
			s.mu.Unlock()
			for i, bound := range f.bounds {
				cum += counts[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, braces(append(pairs, "le="+strconv.Quote(fmtFloat(bound)))), cum)
			}
			fmt.Fprintf(b, "%s_sum%s %s\n%s_count%s %d\n", f.name, braces(pairs), fmtFloat(sum), f.name, braces(pairs), cum)
		case f.float:
			fmt.Fprintf(b, "%s%s %s\n", f.name, braces(pairs), fmtFloat(math.Float64frombits(uint64(s.n.Load()))))
		default:
			fmt.Fprintf(b, "%s%s %d\n", f.name, braces(pairs), s.n.Load())
		}
	}
}

// render builds the exposition of every family whose group has been touched.
// It is complete in memory before any of it is written, so a reader that
// stalls holds no lock an observer needs.
func (r *Registry) render() []byte {
	var b bytes.Buffer
	for _, f := range r.families {
		if f.group.Load() {
			f.write(&b)
		}
	}
	return b.Bytes()
}

// Value returns what a scrape would read for one series, for tests: a counter's
// or gauge's value, a histogram's _count. labelPairs alternate label names and
// values. An undeclared name, a wrong label name or a series nothing has
// created yet panics: a typo must not read as 0.
func (r *Registry) Value(name string, labelPairs ...string) float64 {
	var b bytes.Buffer
	var pairs []string
	for i := 0; i < len(labelPairs); i += 2 {
		pairs = append(pairs, labelPairs[i]+"="+strconv.Quote(labelPairs[i+1]))
	}
	if f := r.byName[name]; f != nil {
		f.write(&b)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		for _, series := range []string{name, name + "_count"} {
			if v, ok := strings.CutPrefix(line, series+braces(pairs)+" "); ok {
				n, _ := strconv.ParseFloat(v, 64)
				return n
			}
		}
	}
	panic("obs: nothing declared or recorded a series " + name + braces(pairs))
}

// Handler serves the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		body := r.render()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
}
