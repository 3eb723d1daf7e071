package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// Live ingestion over a shard set. Mutations are copy-on-write, like the
// underlying indexes: Upsert and Remove return a new *Set sharing every
// untouched shard (index AND engine) with the receiver, which keeps serving unchanged. Only the shard the
// document routes to is rebuilt — an append is a delta append on that
// shard, a delete a tombstone mask — so the cost of a mutation scales
// with one shard, not the corpus.

// RouteShard returns the shard an incoming document with the given name
// routes to: the same FNV-1a name hash Partition uses, so a live add lands
// on the shard a from-scratch hash-partitioned build would have chosen.
func RouteShard(name string, numShards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	// Reduce in uint32: int(Sum32()) is negative for high hashes on 32-bit
	// platforms, and a negative modulo would panic.
	return int(h.Sum32() % uint32(numShards))
}

// NextDocID returns the Dewey document number the next ingested document
// will take: one past the highest live document number across all shards.
func (s *Set) NextDocID() int32 {
	max := int32(0)
	for _, ix := range s.shards {
		if next := ix.NextDocID(); next > max {
			max = next
		}
	}
	return max
}

// ContainsDoc reports whether any shard holds a live document named name.
func (s *Set) ContainsDoc(name string) bool {
	for _, ix := range s.shards {
		if ix.ContainsDoc(name) {
			return true
		}
	}
	return false
}

// Upsert returns a new set with doc added, replacing any live
// document(s) of the same name (replaced reports whether one existed).
// The receiver is unchanged. The document is renumbered to the set's next
// free document id; on failure the caller's document is left as passed
// in. Untouched shards are shared; the target shard (and any shard a
// replace tombstones) gets a fresh engine.
func (s *Set) Upsert(doc *xmltree.Document) (Searcher, bool, error) {
	if doc == nil || doc.Root == nil {
		return nil, false, fmt.Errorf("shard: add of empty document")
	}
	if err := index.ValidateDocName(doc.Name); err != nil {
		return nil, false, err
	}
	shards, engines, replaced, err := deleteByName(s.shards, s.engines, doc.Name)
	if err != nil {
		return nil, false, err
	}
	// The post-delete next id — the same number the single-index upsert
	// assigns, which is what keeps the sharded and single-index mutation
	// histories byte-equivalent.
	docID := int32(0)
	for _, ix := range shards {
		if next := ix.NextDocID(); next > docID {
			docID = next
		}
	}
	if len(shards) == 0 {
		// The replace emptied every shard: start a fresh single-shard set.
		ix, err := index.BuildDocumentAs(doc, docID, s.ixOpts)
		if err != nil {
			return nil, false, err
		}
		shards = append(shards, ix)
		engines = append(engines, core.NewEngine(ix))
	} else {
		target := RouteShard(doc.Name, len(shards))
		next, err := index.AppendAs(shards[target], doc, docID, s.ixOpts)
		if err != nil {
			return nil, false, err
		}
		shards[target] = next
		engines[target] = core.NewEngine(next)
	}
	next, err := s.withShards(shards, engines)
	if err != nil {
		return nil, false, err
	}
	return next, replaced, nil
}

// Remove returns a new set with every live document named name removed;
// the receiver is unchanged. It fails with index.ErrNotFound when no shard
// holds the document and with index.ErrLastDocument when the delete would
// empty the whole set.
func (s *Set) Remove(name string) (Searcher, error) {
	shards, engines, removed, err := deleteByName(s.shards, s.engines, name)
	if err != nil {
		return nil, err
	}
	if !removed {
		return nil, fmt.Errorf("shard: %w: %q", index.ErrNotFound, name)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: %w: %q", index.ErrLastDocument, name)
	}
	return s.withShards(shards, engines)
}

// DocHolds ORs the probes of every shard: a name lives in one shard, and a
// shard that does not hold it answers false.
func (s *Set) DocHolds(name string) func(token string) bool {
	probes := make([]func(string) bool, len(s.shards))
	for i, ix := range s.shards {
		probes[i] = ix.DocHolds(name)
	}
	return func(token string) bool {
		for _, p := range probes {
			if p(token) {
				return true
			}
		}
		return false
	}
}

// PackDebt is the largest pack debt among the shards: every upsert
// delta-appends to one shard and every delete tombstones one, so the set
// owes a repack as soon as any single shard does.
func (s *Set) PackDebt() float64 {
	debt := 0.0
	for _, ix := range s.shards {
		debt = max(debt, ix.PackDebt())
	}
	return debt
}

// Repacked returns a set whose shards with pack debt are repacked (see
// index.Index.Repacked). A shard without debt keeps its index and its
// engine. Repacking moves no document
// between shards, so the routing table carries over.
func (s *Set) Repacked() Searcher {
	shards, engines := slices.Clone(s.shards), slices.Clone(s.engines)
	for i, ix := range shards {
		if ix.PackDebt() > 0 {
			shards[i] = ix.Repacked()
			engines[i] = core.NewEngine(shards[i])
		}
	}
	return s.derive(shards, engines, s.docShard)
}

// deleteByName tombstones every live document named name, returning fresh
// shard/engine slices. Shards the delete would empty are dropped from the
// set (an index cannot be empty); untouched shards are shared as-is.
func deleteByName(shards []*index.Index, engines []*core.Engine, name string) ([]*index.Index, []*core.Engine, bool, error) {
	outS := make([]*index.Index, 0, len(shards))
	outE := make([]*core.Engine, 0, len(engines))
	removed := false
	for i, ix := range shards {
		if !ix.ContainsDoc(name) {
			outS = append(outS, ix)
			outE = append(outE, engines[i])
			continue
		}
		next, err := ix.DeleteDoc(name)
		switch {
		case err == nil:
			outS = append(outS, next)
			outE = append(outE, core.NewEngine(next))
			removed = true
		case errors.Is(err, index.ErrLastDocument):
			removed = true // name was this shard's whole corpus: drop it
		default:
			return nil, nil, false, err
		}
	}
	return outS, outE, removed, nil
}

// withShards assembles a new set around mutated shard slices, recomputing
// the document routing table (which also revalidates the
// one-shard-per-document invariant).
func (s *Set) withShards(shards []*index.Index, engines []*core.Engine) (Searcher, error) {
	docShard, err := computeDocShard(shards)
	if err != nil {
		return nil, err
	}
	return s.derive(shards, engines, docShard), nil
}

// derive assembles a new set around shard slices and their routing table,
// carrying the receiver's serving configuration over.
func (s *Set) derive(shards []*index.Index, engines []*core.Engine, docShard []int32) *Set {
	return &Set{
		shards:       shards,
		engines:      engines,
		docShard:     docShard,
		Generation:   s.Generation,
		allowPartial: s.allowPartial,
		metrics:      s.metrics,
		ixOpts:       s.ixOpts,
	}
}
