// Background checkpointing for WAL-mode ingestion: folding the serving
// state into a durable snapshot so the log can be truncated. The WAL keeps
// every acknowledged mutation replayable; the checkpointer bounds how much
// log a boot has to replay (and how much disk the log occupies) by
// periodically persisting the full snapshot — the expensive write the hot
// path no longer pays — and then dropping the segments it supersedes.
package server

import (
	"context"
	"log"
	"sync"
	"time"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Checkpointer persists the serving system and truncates the superseded
// WAL tail. One checkpointer runs per daemon; Checkpoint is also safe to
// call directly (shutdown, tests) and serializes with the background run.
type Checkpointer struct {
	rl      *Reloader
	wal     *wal.Log
	persist func(gks.Searcher) error
	every   int
	reg     *obs.Registry
	logger  *log.Logger

	mu      sync.Mutex
	pending int    // durable mutations since the last checkpoint
	lastLSN uint64 // highest lsn folded into a snapshot so far
	kick    chan struct{}

	ckptMu   sync.Mutex // serializes Checkpoint bodies
	repackAt float64    // pack-debt threshold for background repacks; 0 disables
}

// NewCheckpointer wires a checkpointer over the reloader's serving state.
// persist writes a Searcher durably (the same function legacy-mode
// ingestion used per mutation) and must be non-nil. every is the number of
// durable mutations that triggers a background checkpoint; 0 means only
// explicit Checkpoint calls (shutdown) fold the log.
func NewCheckpointer(rl *Reloader, l *wal.Log, persist func(gks.Searcher) error, every int, reg *obs.Registry, logger *log.Logger) *Checkpointer {
	return &Checkpointer{
		rl: rl, wal: l, persist: persist, every: every,
		reg: reg, logger: logger,
		kick: make(chan struct{}, 1),
	}
}

// EnableRepack arms background pack maintenance: each checkpoint measures
// the serving system's pack debt (the fraction of the node table's rows
// that are tombstoned; see gks.Searcher.PackDebt) and, at or past
// threshold, compacts the tombstones away and swaps the result into
// service before persisting — so the snapshot that reaches disk is the
// repacked one, and boot never replays onto a bloated table. A threshold
// of 0 (the default) leaves repacking off.
func (c *Checkpointer) EnableRepack(threshold float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.repackAt = threshold
}

// LastCheckpointLSN reports the highest LSN folded into a snapshot by
// this process (0 until the first checkpoint; the WAL floor covers what
// previous processes folded).
func (c *Checkpointer) LastCheckpointLSN() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastLSN
}

// Notify records one durable mutation and kicks the background loop once
// the configured threshold accumulates. It is the Ingester's onDurable
// hook: cheap, non-blocking, safe from any goroutine.
func (c *Checkpointer) Notify() {
	c.mu.Lock()
	c.pending++
	fire := c.every > 0 && c.pending >= c.every
	c.mu.Unlock()
	if fire {
		select {
		case c.kick <- struct{}{}:
		default: // a checkpoint is already queued
		}
	}
}

// Run services checkpoint kicks until ctx is canceled, then takes one
// final checkpoint so a clean shutdown leaves an empty (or minimal) log.
func (c *Checkpointer) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			if err := c.Checkpoint(); err != nil && c.logger != nil {
				c.logger.Printf("checkpoint: final checkpoint failed, log retained: %v", err)
			}
			return
		case <-c.kick:
			if err := c.Checkpoint(); err != nil && c.logger != nil {
				c.logger.Printf("checkpoint: failed, log retained: %v", err)
			}
		}
	}
}

// Checkpoint captures the serving system and the log's high-water mark,
// persists the snapshot, and truncates the log records it supersedes — all
// under the serving mutex. Mutations swap and append under that same
// mutex, so the captured snapshot contains exactly the mutations at or
// below the captured lsn; holding it across persist+truncate means a
// concurrent reload (which loads the on-disk snapshot and then replays the
// log, also under rl.mu) can never pair a pre-checkpoint snapshot with a
// post-truncation log and lose the middle. Searches are untouched — they
// read an atomic pointer — and writers stall only for the occasional
// checkpoint instead of paying a snapshot write per mutation. A failed
// persist leaves the log intact: recovery still replays everything.
func (c *Checkpointer) Checkpoint() error {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()

	start := time.Now()
	c.rl.mu.Lock()
	defer c.rl.mu.Unlock()
	sys := c.rl.h.Searcher()
	lsn := c.wal.LastLSN()

	c.mu.Lock()
	done := lsn == c.lastLSN
	if !done {
		c.pending = 0
	}
	repackAt := c.repackAt
	c.mu.Unlock()
	if done {
		return nil // nothing new since the last checkpoint
	}

	// Pack maintenance rides the checkpoint, still under rl.mu: once the
	// serving table's tombstone debt crosses the threshold, build the
	// compacted table and swap it into service first, so the snapshot
	// persisted below is the repacked one. Mutations are stalled by the
	// same mutex, so no acknowledged write can miss the rebuilt table.
	repStart := time.Now()
	if next, ok := gks.RepackIfNeeded(sys, repackAt); ok {
		c.rl.h.Swap(next)
		sys = next
		c.reg.ObserveRepack(time.Since(repStart))
		if c.logger != nil {
			st := sys.Stats()
			c.logger.Printf("checkpoint: repacked node table in %v, %d document(s) %d element(s)",
				time.Since(repStart).Round(time.Millisecond), st.Documents, st.ElementNodes)
		}
	}
	c.reg.SetPackBloat(sys.PackDebt())

	if err := c.persist(sys); err != nil {
		c.reg.ObserveCheckpoint(false, 0, time.Since(start))
		return err
	}
	removed, err := c.wal.TruncateThrough(lsn)
	if err != nil {
		c.reg.ObserveCheckpoint(false, 0, time.Since(start))
		return err
	}
	c.mu.Lock()
	if lsn > c.lastLSN {
		c.lastLSN = lsn
	}
	c.mu.Unlock()
	c.reg.ObserveCheckpoint(true, removed, time.Since(start))
	if c.logger != nil {
		segs, bytes := c.wal.SegmentStats()
		c.logger.Printf("checkpoint: snapshot through lsn %d, %d segment(s) truncated, log now %d segment(s) %d byte(s)",
			lsn, removed, segs, bytes)
	}
	return nil
}
