package gks

import (
	"errors"
	"fmt"

	"repro/internal/wal"
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
// Every Searcher replays the collapsed tail record by record through its
// own Upsert and Remove. On a single index each upsert is a delta append
// at O(document) cost. Only an upsert that replaces the snapshot's
// highest-numbered document makes index.AppendAs pack the live rows, and
// only once: every later top document carries a name the collapsed tail
// has already used.
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
