GO ?= go

.PHONY: build vet test race bench chain-guard fuzz-smoke shard-race ingest-smoke wal-smoke replica-smoke segment-smoke dag-smoke bench-e2e-smoke bench-spine bench-gate strays check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The serving layer (middleware, singleflight, shared cache, graceful
# shutdown) is concurrency-sensitive; always exercise it under the race
# detector before shipping.
race:
	$(GO) test -race -timeout 5m ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Short fuzz pass over the snapshot loader: arbitrary bytes fed to
# index.Load must produce a typed error, never a panic or an unbounded
# allocation. CI-sized; run with a longer -fuzztime when touching the
# codec.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s ./internal/index
	$(GO) test -run '^$$' -fuzz FuzzLoadManifest -fuzztime 10s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzAdminDocs -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzLoadSegment -fuzztime 10s ./internal/segment

# GKS4 segment smoke: the unit suite plus the root differential property
# tests — a segment-backed system, with a block cache small enough to
# force eviction mid-query, must answer the entire read surface
# byte-identically to the eager in-memory system — all under the race
# detector (the block cache is shared mutable state on the query path).
# TestColdBlocksPruned pins the exact record, block and pruned-block
# counts of the cold query set at scale 1, so losing the threshold merge's
# record filter or the window prune fails here, and
# TestRecordFilterMatchesLockstep holds the filtered pipeline against the
# unfiltered one on fresh, tombstoned, appended and segment-backed corpora.
segment-smoke:
	$(GO) test -race -count=1 ./internal/segment
	$(GO) test -race -count=1 -run 'TestSegment|TestReadIndexStats|TestColdBlocksPruned' .
	$(GO) test -race -count=1 -run 'TestRecordFilterMatchesLockstep' ./internal/core

# Packed node-table smoke: the accessor oracle (every accessor at every
# ordinal against the builder's flat rows, fresh, along random mutation
# histories and after re-categorization), the pin that every index
# constructor returns a packed table, and the differential property tests
# — built vs reloaded systems, mutation histories (Compacted() vs cold
# rebuild), delta appends vs cold builds, concurrent search — plus the segment
# differentials, which exercise the packed meta codec through save/reload
# churn. All under the race detector.
dag-smoke:
	$(GO) test -race -count=1 -run 'TestPacked|TestSegmentDifferential|TestSegmentMutation|TestSegmentEviction' .
	$(GO) test -race -count=1 -run 'TestAccessorOracle|TestEveryConstructorReturnsPacked|TestPack|TestNodeTableBytes|TestRandomMutations' ./internal/index

# Live-ingestion smoke: the full HTTP mutation lifecycle (add → replace →
# delete, persistence round-trips, durability failure modes, metrics), the
# cached-vs-uncached differential over random mutation histories and the
# fill-after-swap race, under the race detector — the fastest signal that
# /admin/docs still honours persist-before-acknowledge and that the
# response cache only ever serves the served system's answer, whichever of
# /search, /insights and /refine asks, and that a top-k /search body is the
# one the whole response renders; plus the delete differential, which
# holds DeleteDoc's incremental statistics and dead posting counts against
# a recount over random mutation histories. -timeout 5m: a hung wait fails
# the rule in minutes (as in race and shard-race).
ingest-smoke:
	$(GO) test -race -count=1 -timeout 5m -run 'TestIngest|TestCache|TestPartial|TestInsightsMissesCoalesce|TestGetIf|TestSearchTopK|TestDeleteDocDifferential' ./internal/server ./internal/cache ./internal/index

# Write-ahead-log smoke: a short fuzz pass over the segment scanner
# (arbitrary bytes must parse cleanly, drop a torn tail, or fail with a
# typed ErrCorrupt — never panic), plus the group-commit concurrency and
# crash-replay suites under the race detector. Run with a longer
# -fuzztime when touching the framing codec.
wal-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'TestWALReplay|TestIngestWAL' . ./internal/server

# Replication crash drill: the in-process cluster property test (WAL
# shipping under injected network faults, snapshot re-install, router
# failover/partial contract) under the race detector, then the
# real-process smoke — gksd leader and follower SIGKILLed mid-stream /
# mid-ingest, restarted from their surviving directories, and asserted
# to converge.
replica-smoke:
	$(GO) test -race -count=1 ./internal/replica/... ./internal/wal
	$(GO) test -count=1 -run TestProcessCrashConvergence ./internal/replica

# The request path's allocation guard, outside the race detector (which
# changes allocation counts): TestChainCachedHitAllocs pins what a cached
# /search hit allocates through the gksd middleware chain, so a
# per-request buffer or goroutine cannot come back unnoticed, and
# BenchmarkChainCachedHit prices that hit. TestArenaSurvivesUpsert pins
# that the first search after a write reuses a pooled query arena instead
# of allocating node-count tables for the new generation.
chain-guard:
	$(GO) test -count=1 -run 'TestChainCachedHitAllocs|TestArenaSurvivesUpsert' -bench ChainCachedHit -benchmem -benchtime 20000x ./internal/server

# The scatter-gather fan-out and the build worker pool are the most
# concurrency-sensitive code in the tree; the shard suite includes
# dedicated concurrent-search and reload-under-traffic tests that only
# bite under the race detector.
shard-race:
	$(GO) test -race -count=1 -timeout 5m ./internal/shard/... ./internal/server/...

# The measurement spine (bench/, the harness behind BENCHMARK.json) is a
# module of its own, outside ./..., so build, vet and test above never
# reach it: an engine or server signature change could break it silently.
# Vet it and run its tests (unit tests plus a scale-1, 1 s smoke of all
# four workloads against a real gksd). Like every rule that boots a gksd,
# it ends with `strays`: a process left behind fails the rule that left it.
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	@$(MAKE) --no-print-directory strays

# One command regenerates every system-level number README.md and
# DESIGN.md quote: all four workloads, end to end and per layer (traced
# run), into the committed BENCH_spine.json (about two minutes; the
# envelope records commit, CPU and seed).
bench-spine:
	bash bench/run.sh -out BENCH_spine.json
	@$(MAKE) --no-print-directory strays

# The regression gate: measure the checkout into $(NEW), then compare it
# with $(BASE) under the bounds of BENCHMARK.json (exit 1 and the row's
# name on a regression). Make $(BASE) on the parent commit with
# `bash bench/run.sh -aa 2 -out <file>`, so its own spread is known. The
# defaults sit in the git-ignored build directory of run.sh.
BASE ?= .bench_build/base.json
NEW ?= .bench_build/new.json
bench-gate:
	bash bench/run.sh -out $(NEW)
	bash bench/run.sh -compare $(BASE) $(NEW)
	@$(MAKE) --no-print-directory strays

# A gksd or a benchmark harness still running once the work is done: four
# PRs were rejected for one. Lists them (PID and name) and fails if there is
# any. Last in `check` and in every rule that runs bench/; run it by hand
# after a bare bench/run.sh too.
strays:
	@left=$$(pgrep -x -l gksd; pgrep -x -l bench); \
	if [ -n "$$left" ]; then echo "strays: still running:"; echo "$$left"; exit 1; fi

check: build vet race chain-guard fuzz-smoke wal-smoke replica-smoke segment-smoke dag-smoke shard-race ingest-smoke bench-e2e-smoke strays
