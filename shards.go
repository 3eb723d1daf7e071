package gks

import (
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// Searcher is the serving surface shared by a single-index System and a
// sharded index set: one query entry point (Search), the analyses and
// introspection gksd serves, and copy-on-write mutation (Upsert, Remove,
// DocHolds, PackDebt, Repacked) — everything the HTTP layer needs,
// independent of how the index is physically laid out. A type embedding a
// *System is a Searcher too, with every mutation and probe of the system
// it wraps. The interface is declared in internal/shard, the lowest
// package that can name its own type in the mutations' results.
type Searcher = shard.Searcher

var _ Searcher = (*System)(nil)

// ShardedSystem is a set of independent index shards searched with a
// parallel scatter-gather whose merged responses are identical to a
// single-index System over the same documents (see internal/shard). It
// persists as a GKSM1 manifest plus one snapshot file per shard
// (SaveManifest / LoadShardSet) and satisfies Searcher, so gksd can serve
// and hot-reload it exactly like a single index.
type ShardedSystem = shard.Set

// ShardOptions configures sharded index builds.
type ShardOptions = shard.Options

// DefaultShardOptions returns the standard configuration for n shards:
// document-hash partitioning, parallel build, fail-fast searches.
func DefaultShardOptions(n int) ShardOptions { return shard.DefaultOptions(n) }

// IndexDocumentsSharded partitions the documents into n shards and builds
// them in parallel. Documents are renumbered globally, so responses carry
// the same Dewey IDs as IndexDocuments over the same slice.
func IndexDocumentsSharded(n int, docs ...*Document) (*ShardedSystem, error) {
	return IndexDocumentsShardedOpts(shard.DefaultOptions(n), docs...)
}

// IndexDocumentsShardedOpts is IndexDocumentsSharded with full control
// over partitioning, build concurrency and partial-result semantics.
func IndexDocumentsShardedOpts(opts ShardOptions, docs ...*Document) (*ShardedSystem, error) {
	return shard.Build(docs, opts)
}

// IndexFilesSharded parses the XML files and indexes them into n shards.
func IndexFilesSharded(n int, paths ...string) (*ShardedSystem, error) {
	docs := make([]*Document, 0, len(paths))
	for _, p := range paths {
		d, err := xmltree.ParseFile(p, 0)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return IndexDocumentsSharded(n, docs...)
}

// LoadShardSet restores a sharded system from a GKSM1 manifest written by
// ShardedSystem.SaveManifest. The load is all-or-nothing: a missing,
// truncated or bit-flipped shard file fails the whole set (wrapping
// ErrCorruptIndex), never yielding a mixed-generation system.
func LoadShardSet(path string) (*ShardedSystem, error) {
	return shard.LoadManifest(path)
}
