package gks

import (
	"errors"
	"fmt"

	"repro/internal/index"
	"repro/internal/wal"
	"repro/internal/xmltree"
)

// Write-ahead-log recovery: folding a surviving log tail into a loaded
// snapshot so a daemon boots to exactly the state it acknowledged before
// a crash. The snapshot and the log overlap by design — checkpoint
// truncation removes only whole segments, so the log's surviving records
// are a contiguous suffix of the mutation history whose early records
// may already be baked into the snapshot — and replay must be idempotent
// across that overlap.

// ReplayWAL applies the log's surviving records to sys and returns the
// recovered system (sys itself is unchanged, copy-on-write like every
// mutation) along with the number of mutations applied. An empty log
// returns sys itself: a segment-backed system stays lazy and keeps its
// block cache and its file handle. Replay is
// last-writer-wins: only each document's final logged op matters, all
// final upserts apply before all final deletes, and a delete of an
// already-absent document is skipped. For a log that is a contiguous
// suffix of the acknowledged history this provably reproduces the state
// a cold rebuild of that history would reach:
//
//   - a record older than the snapshot re-applies a state the snapshot
//     already holds (same content on upsert, already-gone on delete);
//   - ordering between different documents is immaterial once each is
//     collapsed to its final op;
//   - applying upserts first means the corpus never shrinks below its
//     final size mid-replay, so ErrLastDocument — which the live path
//     can reject but an acknowledged history can never contain — cannot
//     fire transiently.
//
// A single-index system replays the whole collapsed tail as one batch:
// every replaced or deleted document tombstones first, then all upserts
// splice in through a single index.AppendBatch merge, so a packed
// snapshot re-packs at most once no matter how many records survived.
// The per-record path below it used to pay a full unpack/repack cycle
// per upsert — O(snapshot × records) boot cost, the same write collapse
// the delta pack fixes for live ingestion. Sharded systems still replay
// record by record (each record touches one shard, there is no shared
// table to amortize).
//
// Damage in the log (ErrCorrupt) or an unparsable logged document fails
// the whole recovery: serving a partial history would silently drop
// acknowledged writes.
func ReplayWAL(sys Searcher, l *wal.Log) (Searcher, int, error) {
	type finalOp struct {
		op  wal.Op
		doc string
	}
	finals := make(map[string]*finalOp)
	var order []string // first-appearance order, for deterministic apply
	err := l.Replay(func(r wal.Record) error {
		f, ok := finals[r.Name]
		if !ok {
			f = &finalOp{}
			finals[r.Name] = f
			order = append(order, r.Name)
		}
		f.op, f.doc = r.Op, r.Doc
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("gks: wal replay: %w", err)
	}
	// Parse every surviving document before touching sys: an unparsable
	// record fails recovery without a partially-mutated result to discard.
	var upserts []*Document
	var deletes []string
	for _, name := range order {
		f := finals[name]
		if f.op != wal.OpUpsert {
			deletes = append(deletes, name)
			continue
		}
		doc, err := ParseDocumentString(f.doc, name)
		if err != nil {
			return nil, 0, fmt.Errorf("gks: wal replay: document %q: %w", name, err)
		}
		upserts = append(upserts, doc)
	}
	if len(upserts) == 0 && len(deletes) == 0 {
		return sys, 0, nil
	}
	// A batch fast path for a single index, not a refusal: any other
	// Searcher replays record by record below.
	if s, ok := sys.(*System); ok {
		next, applied, err := s.replayBatch(upserts, deletes)
		if err != nil {
			return nil, 0, err
		}
		return next, applied, nil
	}
	applied := 0
	for _, doc := range upserts {
		next, _, err := sys.Upsert(doc)
		if err != nil {
			return nil, 0, fmt.Errorf("gks: wal replay: upsert %q: %w", doc.Name, err)
		}
		sys = next
		applied++
	}
	for _, name := range deletes {
		next, err := sys.Remove(name)
		if errors.Is(err, ErrDocNotFound) {
			continue // the snapshot never held it, or a replayed state already dropped it
		}
		if err != nil {
			return nil, 0, fmt.Errorf("gks: wal replay: delete %q: %w", name, err)
		}
		sys = next
		applied++
	}
	return sys, applied, nil
}

// replayBatch applies a collapsed WAL tail (disjoint final upserts and
// final deletes) to a single-index system in one splice. Replaced and
// deleted documents tombstone against the shared base — no unpack, no
// copy — and the upserts then merge through one AppendBatch call, which
// flattens the base once and re-packs a packed base exactly once. The
// applied count matches per-record replay: every upsert counts, a delete
// counts only when the document existed.
func (s *System) replayBatch(upserts []*Document, deletes []string) (*System, int, error) {
	opts := index.DefaultOptions()
	wasPacked := s.ix.IsPacked()
	work := s.ix
	applied := len(upserts)
	freshRebuild := false

	type removal struct {
		name     string
		isDelete bool
	}
	removals := make([]removal, 0, len(upserts)+len(deletes))
	for _, d := range upserts {
		removals = append(removals, removal{d.Name, false})
	}
	for _, n := range deletes {
		removals = append(removals, removal{n, true})
	}
	for _, r := range removals {
		next, err := work.DeleteDoc(r.name)
		switch {
		case err == nil:
			work = next
			if r.isDelete {
				applied++
			}
		case errors.Is(err, index.ErrNotFound):
			// New document on upsert, or a delete the snapshot never held.
		case errors.Is(err, index.ErrLastDocument):
			// The batch empties the old corpus. With upserts pending the
			// final state is exactly the upsert set, built fresh below;
			// without any, an acknowledged history cannot reach here and
			// the recovery fails like the live path would have.
			if len(upserts) == 0 {
				return nil, 0, fmt.Errorf("gks: wal replay: delete %q: %w", r.name, err)
			}
			if r.isDelete {
				applied++
			}
			freshRebuild = true
		default:
			return nil, 0, fmt.Errorf("gks: wal replay: %q: %w", r.name, err)
		}
		if freshRebuild {
			break
		}
	}

	var next *index.Index
	var err error
	if freshRebuild {
		next, err = index.BuildDocumentAs(upserts[0], 0, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("gks: wal replay: upsert %q: %w", upserts[0].Name, err)
		}
		next, err = index.AppendBatch(next, upserts[1:], opts)
		if err != nil {
			return nil, 0, fmt.Errorf("gks: wal replay: %w", err)
		}
		if wasPacked {
			next = next.Pack()
		}
	} else {
		next, err = index.AppendBatch(work, upserts, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("gks: wal replay: %w", err)
		}
	}

	repo := s.repo
	if repo != nil {
		docs := repo.Docs
		for _, r := range removals {
			docs = docsWithout(docs, r.name)
		}
		docs = append(docs, upserts...)
		repo = &xmltree.Repository{Docs: docs}
	}
	return newSystem(next, repo), applied, nil
}
