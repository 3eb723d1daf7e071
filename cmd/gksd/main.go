// Command gksd serves a GKS index over HTTP with a JSON API — see
// internal/server for the endpoint list. The serving stack is
// production-shaped: panic recovery, structured access logs, per-request
// timeouts, load shedding at a concurrency cap, Prometheus-format metrics
// at /metrics, a liveness probe at /healthz, graceful drain on
// SIGINT/SIGTERM, and zero-downtime snapshot reload via POST /admin/reload
// or SIGHUP.
//
// Usage:
//
//	gksd -index repo.gksidx -addr :8791
//	gksd -files dblp.xml,sigmod.xml -addr 127.0.0.1:8791 \
//	     -timeout 5s -max-inflight 128 -cache 1024
//
// Example session:
//
//	curl 'localhost:8791/search?q="Peter Buneman" "Wenfei Fan"&s=2'
//	curl 'localhost:8791/insights?q=karen&m=5'
//	curl 'localhost:8791/metrics'
//	gks index -out repo.gksidx updated.xml && curl -X POST localhost:8791/admin/reload
//
// Reload repeats whatever the daemon booted from — it re-reads the -index
// snapshot (replaced atomically on disk by `gks index`) or re-parses the
// -files list — off the request path, validates the result, and swaps it
// in. If the new snapshot is corrupt or unreadable, the old index keeps
// serving and the error is surfaced in the reload response, the logs, and
// the gks_snapshot_reloads_total{result="failure"} counter.
//
// Live ingestion (POST /admin/docs, DELETE /admin/docs/{name}) adds,
// replaces and deletes single documents without a rebuild or restart. When
// the daemon booted from -index or -index-manifest, mutations are durable
// through a write-ahead log: each one is appended to the log (group
// commit — concurrent writers share fsyncs) and acknowledged once its
// record is on disk, while a background checkpointer folds the log into
// the boot snapshot every -checkpoint-every mutations (and at shutdown)
// and truncates the superseded segments. Boot and reload replay any
// surviving log tail over the snapshot, so acknowledged mutations survive
// a crash at any point. The log lives in -wal-dir (default: the boot path
// plus ".wal"); -wal-dir=off restores the old snapshot-per-mutation
// behavior. When the daemon booted from -files, mutations are served from
// memory only — a reload re-parses the original file list and discards
// them; the mutation response says "persisted": false so callers know.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	indexPath := flag.String("index", "", "saved index file")
	manifestPath := flag.String("index-manifest", "", "saved shard-set manifest (serves a sharded index with scatter-gather search)")
	files := flag.String("files", "", "comma-separated XML files to index on startup")
	shardN := flag.Int("shards", 1, "with -files: partition the documents into N index shards built in parallel")
	partial := flag.Bool("partial-results", false, "with a sharded index: answer with partial results when a shard fails instead of failing the query")
	addr := flag.String("addr", "127.0.0.1:8791", "listen address")
	schemaCats := flag.Bool("schema", false, "apply schema-aware categorization at startup (and on reload)")
	lenient := flag.Bool("lenient", false, "with -files: skip unparsable XML files (logged) instead of failing the batch")
	cacheSize := flag.Int("cache", 256, "LRU entries, one per query (q, s), for /search, /insights and /refine responses (0 disables)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout; exceeding it answers 504 (0 disables)")
	maxInflight := flag.Int("max-inflight", 256, "concurrent request cap; excess load sheds with 503 (0 disables)")
	grace := flag.Duration("shutdown-grace", 15*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
	quiet := flag.Bool("quiet", false, "suppress per-request access log lines")
	walDirFlag := flag.String("wal-dir", "", "write-ahead-log directory for live mutations (default: boot path + \".wal\"; \"off\" = snapshot per mutation; ignored with -files)")
	checkpointEvery := flag.Int("checkpoint-every", 64, "durable mutations between background WAL checkpoints (0 = checkpoint only at shutdown)")
	repackThreshold := flag.Float64("repack-threshold", 0.3, "pack-debt fraction (delta-appended + tombstoned rows / total) past which a checkpoint repacks the node table (0 disables)")
	follow := flag.String("follow", "", "run as a replication follower of this leader base URL (requires -index; mutations are rejected locally)")
	replicaMaxLag := flag.Uint64("replica-max-lag", 4096, "with -follow: record lag beyond which /healthz?ready reports not ready")
	blockCacheMB := flag.Int("block-cache-mb", 64, "posting-block cache capacity in MiB when serving a GKS4 segment (the process-wide budget, shared across hot reloads)")
	flag.Parse()

	logger := log.New(os.Stderr, "gksd ", log.LstdFlags)
	reg := obs.NewRegistry()

	// One block cache for the whole process: hot reloads open a fresh
	// segment reader per generation, but they all charge the same byte
	// budget, so -block-cache-mb bounds resident posting blocks globally
	// rather than per generation. Idle (zero-cost) unless a GKS4 segment
	// is actually served.
	blockCache := segment.NewBlockCache(int64(*blockCacheMB)<<20, reg)

	// A follower mirrors a leader's WAL into local state: it needs the
	// single-index + WAL configuration, and nothing else makes sense.
	if *follow != "" {
		*follow = strings.TrimRight(*follow, "/")
		switch {
		case *indexPath == "":
			log.Fatal("gksd: -follow requires -index (the local snapshot path)")
		case *files != "" || *manifestPath != "":
			log.Fatal("gksd: -follow is incompatible with -files and -index-manifest")
		case *walDirFlag == "off":
			log.Fatal("gksd: -follow requires a WAL (-wal-dir=off is incompatible)")
		}
	}

	// loadSys builds a serving system from the configured source. It runs
	// once at boot and again on every reload trigger, so a reload picks up
	// a replaced snapshot (or whole shard set) on disk, or re-parses
	// updated XML inputs. Sharded systems get the metrics sink wired in
	// before they serve their first request.
	loadSys := func() (gks.Searcher, error) {
		var sys gks.Searcher
		var err error
		switch {
		case *files != "":
			paths := strings.Split(*files, ",")
			if *shardN > 1 {
				opts := gks.DefaultShardOptions(*shardN)
				opts.AllowPartial = *partial
				var set *gks.ShardedSystem
				set, err = shardedFromFiles(opts, paths, *lenient)
				sys = set
			} else if *lenient {
				var skipped []gks.FileError
				var single *gks.System
				single, skipped, err = gks.IndexFilesLenient(paths...)
				for _, fe := range skipped {
					log.Printf("gksd: lenient: skipping %s: %v", fe.Path, fe.Err)
				}
				sys = single
			} else {
				sys, err = gks.IndexFiles(paths...)
			}
		case *manifestPath != "":
			var set *gks.ShardedSystem
			set, err = gks.LoadShardSet(*manifestPath)
			if err == nil {
				set.SetAllowPartial(*partial)
			}
			sys = set
		case *indexPath != "":
			sys, err = gks.LoadIndexFileOpts(*indexPath, gks.SegmentOptions{
				Cache:   blockCache,
				Metrics: reg,
			})
		default:
			err = fmt.Errorf("provide -index, -index-manifest or -files")
		}
		if err != nil {
			return nil, err
		}
		if *schemaCats {
			changed := sys.ApplySchemaCategorization()
			log.Printf("schema-aware categorization: %d node(s) reclassified", changed)
		}
		if set, ok := sys.(*gks.ShardedSystem); ok {
			set.SetMetrics(reg)
			reg.SetShardCount(set.NumShards())
		} else {
			reg.SetShardCount(1)
		}
		reg.SetDocs(sys.Stats().Documents)
		return sys, nil
	}

	// WAL mode (snapshot/manifest boots): open the mutation log and wrap
	// the loader so boot AND every reload fold the log's surviving tail
	// into the freshly loaded snapshot. Replay is idempotent across the
	// snapshot/log overlap, so a reload right after a checkpoint — or a
	// crash between append, checkpoint and truncate — always recovers to
	// exactly the acknowledged state.
	var walLog *wal.Log
	walDir := *walDirFlag
	switch {
	case *files != "":
		if walDir != "" && walDir != "off" {
			logger.Print("note: -wal-dir is ignored with -files (mutations are in-memory by design)")
		}
		walDir = ""
	case walDir == "off":
		walDir = ""
	case walDir == "":
		if *manifestPath != "" {
			walDir = *manifestPath + ".wal"
		} else if *indexPath != "" {
			walDir = *indexPath + ".wal"
		}
	}
	if walDir != "" {
		l, err := wal.Open(walDir, wal.Options{Metrics: reg})
		if err != nil {
			log.Fatal("gksd: wal: ", err)
		}
		walLog = l
		base := loadSys
		loadSys = func() (gks.Searcher, error) {
			sys, err := base()
			if err != nil {
				return nil, err
			}
			recovered, n, err := gks.ReplayWAL(sys, walLog)
			if err != nil {
				return nil, err
			}
			reg.ObserveWALReplay(n)
			if n > 0 {
				logger.Printf("wal: replayed %d surviving record(s) from %s", n, walDir)
				reg.SetDocs(recovered.Stats().Documents)
			}
			return recovered, nil
		}
	}

	// Follower bootstrap: a first boot (no local snapshot) or a boot that
	// found an interrupted snapshot install discards local state, fetches
	// the leader's current snapshot and resets the local log — after
	// which the normal load path (snapshot + log replay) runs unchanged.
	if *follow != "" {
		if walLog == nil {
			log.Fatal("gksd: -follow requires a WAL")
		}
		needJoin := server.InstallPending(walDir)
		if !needJoin {
			if _, err := os.Stat(*indexPath); err != nil {
				needJoin = true
			}
		}
		if needJoin {
			logger.Printf("replica: joining cluster from %s", *follow)
			if err := server.JoinCluster(*follow, nil, *indexPath, walLog, logger); err != nil {
				log.Fatal("gksd: ", err)
			}
		}
	} else if walLog != nil && server.InstallPending(walDir) {
		// An interrupted snapshot install means the snapshot and the log
		// no longer agree; only a re-join can fix that, and this boot
		// was not asked to follow anyone.
		log.Fatalf("gksd: %s holds an interrupted snapshot install marker; boot with -follow to re-join, or remove the WAL directory to start from the snapshot alone", walDir)
	}

	sys, err := loadSys()
	if err != nil {
		log.Fatal("gksd: ", err)
	}

	api := server.NewWithCache(sys, *cacheSize)
	reg.SetCacheStats(api.CacheStats)
	reg.SetCacheEvictions(api.CacheEvictions)
	api.SetSearchObserver(reg)
	reg.SetSnapshotGeneration(api.Generation())
	reloader := server.NewReloader(api, loadSys, reg, logger)

	// persist writes each live mutation durably to the boot source before
	// it serves; nil with -files, where mutations are in-memory by design
	// (a reload re-parses the original inputs).
	var persist func(gks.Searcher) error
	switch {
	case *files != "":
		// boot source is raw XML: nothing durable to write back
	case *manifestPath != "":
		persist = func(sys gks.Searcher) error {
			set, ok := sys.(*gks.ShardedSystem)
			if !ok {
				return fmt.Errorf("cannot persist %T to shard manifest %s", sys, *manifestPath)
			}
			return set.SaveManifest(*manifestPath)
		}
	case *indexPath != "":
		// Preserve the boot file's physical format: a daemon booted from a
		// GKS4 segment checkpoints GKS4 segments back, so the next boot (or
		// an offline gks command) sees the same layout it started with.
		bootIsSegment := segment.IsSegmentFile(*indexPath)
		persist = func(sys gks.Searcher) error {
			single, ok := sys.(*gks.System)
			if !ok {
				return fmt.Errorf("cannot persist %T to single-index snapshot %s", sys, *indexPath)
			}
			if bootIsSegment {
				return single.SaveSegmentFile(*indexPath)
			}
			return single.SaveIndexFile(*indexPath)
		}
	}
	ingester := server.NewIngester(reloader, persist, reg, logger)

	// With a WAL, mutations acknowledge on log durability and the
	// checkpointer owns the snapshot write: every -checkpoint-every durable
	// mutations (and once at shutdown) it persists the serving state and
	// truncates the log segments that snapshot supersedes.
	ckptDone := make(chan struct{})
	ckptStop := func() {}
	var ckpt *server.Checkpointer
	if walLog != nil && persist != nil {
		ckpt = server.NewCheckpointer(reloader, walLog, persist, *checkpointEvery, reg, logger)
		ckpt.EnableRepack(*repackThreshold)
		ingester.EnableWAL(walLog, ckpt.Notify)
		ckptCtx, cancel := context.WithCancel(context.Background())
		ckptStop = cancel
		go func() {
			defer close(ckptDone)
			ckpt.Run(ckptCtx)
		}()
		logger.Printf("wal: logging mutations to %s (checkpoint every %d)", walDir, *checkpointEvery)
	} else {
		close(ckptDone)
	}

	if *schemaCats {
		// Ingested documents are categorized by the schema inferred at
		// build time, not re-inferred per mutation (re-applying would race
		// in-flight searches on the shared node table). POST /admin/reload
		// re-runs -schema categorization over the full corpus.
		logger.Print("note: -schema categorization is not re-applied on /admin/docs mutations; trigger /admin/reload to re-categorize")
	}

	// Replication roles. A follower tails the leader's stream through a
	// ReplicaApplier (the same two-phase commit path as local ingestion)
	// and rejects local mutations; any single-index WAL boot that is not
	// following acts as a leader and exposes the snapshot + stream
	// endpoints — a standalone daemon is just a leader nobody follows.
	role := "single"
	var follower *replica.Follower
	var leader *replica.Leader
	followDone := make(chan struct{})
	followStop := func() {}
	switch {
	case *follow != "":
		role = "follower"
		onDurable := func() {}
		if ckpt != nil {
			onDurable = ckpt.Notify
		}
		applier := server.NewReplicaApplier(reloader, walLog, *indexPath, reg, logger, onDurable)
		var err error
		follower, err = replica.NewFollower(replica.Config{
			Leader:  *follow,
			Applier: applier,
			Metrics: reg,
			Logger:  logger,
			MaxLag:  *replicaMaxLag,
		})
		if err != nil {
			log.Fatal("gksd: ", err)
		}
		reg.SetReplicaRole(role)
		followCtx, cancel := context.WithCancel(context.Background())
		followStop = cancel
		go func() {
			defer close(followDone)
			if err := follower.Run(followCtx); err != nil && followCtx.Err() == nil {
				// A failed apply means the local mirror has diverged from
				// the leader; serving on would return wrong answers.
				logger.Printf("replica: follower stopped: %v", err)
				os.Exit(1)
			}
		}()
		logger.Printf("replica: following %s (max lag %d records)", *follow, *replicaMaxLag)
	case walLog != nil && *indexPath != "":
		role = "leader"
		leader = &replica.Leader{
			Log:      walLog,
			Snapshot: reloader.ReplicaSource(walLog),
			Metrics:  reg,
			Logger:   logger,
		}
		reg.SetReplicaRole(role)
		close(followDone)
	default:
		close(followDone)
	}

	mw := []server.Middleware{server.WithMetrics(reg)}
	if !*quiet {
		mw = append(mw, server.WithAccessLog(logger))
	}
	mw = append(mw,
		server.WithRecovery(reg, logger),
		server.WithLimit(*maxInflight, reg),
		server.WithTimeout(*timeout),
	)

	// /metrics, /healthz and /admin/reload bypass the limiter and timeout
	// so observability and operations stay reachable even when the API is
	// saturated; reload work happens off the request path regardless.
	root := http.NewServeMux()
	root.Handle("/", server.Chain(api, mw...))
	root.Handle("/metrics", server.Chain(reg.Handler(), server.WithRecovery(reg, logger)))
	root.Handle("/admin/reload", server.Chain(reloader.AdminHandler(), server.WithRecovery(reg, logger)))
	// Followers are read replicas: the single writer is the leader, and a
	// local mutation would fork the mirror.
	docsHandler := http.Handler(ingester.Handler())
	if follower != nil {
		leaderURL := *follow
		docsHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusForbidden)
			fmt.Fprintf(w, "{\"error\":\"this node is a read replica; send mutations to the leader\",\"leader\":%q}\n", leaderURL)
		})
	}
	root.Handle("/admin/docs", server.Chain(docsHandler, server.WithRecovery(reg, logger)))
	root.Handle("/admin/docs/", server.Chain(docsHandler, server.WithRecovery(reg, logger)))
	if leader != nil {
		// Recovery only: the stream is long-lived by design, so the
		// limiter and per-request timeout must not touch it.
		root.Handle("/replica/snapshot", server.Chain(leader.SnapshotHandler(), server.WithRecovery(reg, logger)))
		root.Handle("/replica/stream", server.Chain(leader.StreamHandler(), server.WithRecovery(reg, logger)))
	}
	health := &server.Health{Handler: api, Role: role, WAL: walLog, Checkpoint: ckpt}
	if follower != nil {
		health.Ready = follower.Ready
		health.Replica = func() any { return follower.Status() }
	}
	root.Handle("/healthz", health)

	// SIGHUP triggers the same reload as POST /admin/reload — the
	// traditional "re-read your config" signal, here "re-read your index".
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if _, err := reloader.Reload(); err != nil {
				logger.Printf("SIGHUP reload: %v", err)
			}
		}
	}()

	st := sys.Stats()
	log.Printf("serving %d document(s), %d elements, %d entity nodes on %s (timeout=%s max-inflight=%d cache=%d)",
		st.Documents, st.ElementNodes, st.EntityNodes, *addr, *timeout, *maxInflight, *cacheSize)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := server.NewHTTPServer(*addr, root, *timeout)
	if err := server.Serve(ctx, srv, *grace); err != nil {
		log.Fatal("gksd: ", err)
	}
	// Stop tailing the leader before the final checkpoint so the
	// checkpointed snapshot covers every applied record.
	followStop()
	<-followDone
	if walLog != nil {
		// In-flight mutations have drained; the final checkpoint folds the
		// log into the snapshot so the next boot replays (near) nothing.
		ckptStop()
		<-ckptDone
		if err := walLog.Close(); err != nil {
			logger.Printf("wal: close: %v", err)
		}
	}
	log.Print("gksd: drained in-flight requests, shut down cleanly")
}

// shardedFromFiles parses the XML inputs and builds a sharded system. With
// lenient set, files that fail to open or parse are skipped (logged) and
// only an empty surviving set is an error — mirroring IndexFilesLenient.
func shardedFromFiles(opts gks.ShardOptions, paths []string, lenient bool) (*gks.ShardedSystem, error) {
	docs := make([]*gks.Document, 0, len(paths))
	for _, p := range paths {
		d, err := gks.ParseDocumentFile(p)
		if err != nil {
			if lenient {
				log.Printf("gksd: lenient: skipping %s: %v", p, err)
				continue
			}
			return nil, err
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("no indexable files: all %d input file(s) failed to parse", len(paths))
	}
	return gks.IndexDocumentsShardedOpts(opts, docs...)
}
