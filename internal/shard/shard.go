// Package shard partitions a multi-document repository into independent
// index shards and searches them with a parallel scatter-gather that is
// provably equivalent to searching one index over all the documents.
//
// Sharding is by document: a Dewey LCA never spans two documents, every
// sliding-window block that produces a candidate lies inside one document
// (§2.4 — "GKS search is seamlessly expanded over multiple documents by
// prefixing Dewey ids"), and the potential-flow rank of a candidate reads
// only its own subtree. Documents therefore keep their GLOBAL DocIDs
// inside each shard, per-document candidates/masks/ranks are bit-identical
// between the sharded and single-index pipelines, and a k-way merge of the
// per-shard ranked lists by core.ResultBefore reproduces exactly the
// single-index response order. The property test in equivalence_test.go
// asserts this for random corpora and shard counts.
package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// Options configures Build.
type Options struct {
	// Shards is the number of index shards. It is clamped to
	// [1, number of documents]; shards left empty by the assignment are
	// dropped, so NumShards on the built set may be lower.
	Shards int
	// ByTokens balances shards by document token count (greedy
	// longest-processing-time assignment) instead of hashing document
	// names. Hashing is stable under corpus growth; token balancing gives
	// tighter shard sizes for skewed corpora.
	ByTokens bool
	// Workers bounds the number of concurrent shard builds; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// AllowPartial degrades scatter-gather searches to partial results
	// when a shard fails, instead of failing the whole query. Partial
	// responses are flagged in Response.Partial.
	AllowPartial bool
	// Index configures each shard's index build.
	Index index.Options
}

// DefaultOptions returns the standard configuration for n shards.
func DefaultOptions(n int) Options {
	return Options{Shards: n, Index: index.DefaultOptions()}
}

// Metrics receives shard-level observability events. It is satisfied by
// obs.Registry; a nil metrics sink disables reporting.
type Metrics interface {
	// ObserveShardSearch records one shard's portion of a scatter-gather
	// fan-out.
	ObserveShardSearch(shard int, d time.Duration)
	// IncShardPartial counts searches that returned partial results
	// because at least one shard failed.
	IncShardPartial()
}

// Set is a searchable collection of index shards. Like gks.System it is
// safe for concurrent readers once built, and it implements Searcher.
type Set struct {
	shards  []*index.Index
	engines []*core.Engine
	// docShard maps a global document ID to the shard holding it.
	docShard []int32
	// Generation is the manifest generation: 1 for a freshly built set,
	// the persisted value for a set loaded from a manifest. SaveManifest
	// advances it — shard file names embed it, which is what makes saves
	// crash-safe.
	Generation uint64

	allowPartial bool
	metrics      Metrics
	// ixOpts is the per-shard index build configuration, retained so live
	// ingestion (Upsert) builds partial indexes exactly like the
	// original shards were built.
	ixOpts index.Options

	vocabOnce sync.Once
	vocab     map[string]int
}

// Build renumbers the documents globally (in order), partitions them into
// shards, and builds every shard index concurrently with a bounded worker
// pool. The documents' DocIDs and Dewey IDs are reassigned.
func Build(docs []*xmltree.Document, opts Options) (*Set, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("shard: no documents")
	}
	// Global renumbering first: shard indexes must carry repository-wide
	// DocIDs for the merged response order (and DI resolution) to be
	// identical to the single-index build. Partitioning must NOT go
	// through xmltree.Repository.Add, which renumbers per repository.
	for i, d := range docs {
		d.DocID = int32(i)
		d.AssignIDs()
	}
	groups := Partition(docs, opts)

	// Partitioning gives each shard builder information a monolithic
	// build never has before it starts: the exact element-node count of
	// its group (a cheap structural walk, no tokenization), and — because
	// shards build independently — the observed term/posting stats of
	// whichever shard finishes first. Both become index.SizeHint
	// capacities, removing most of the node-table re-growth, posting-list
	// reallocation and map rehashing that dominate an unhinted build.
	// Training is opportunistic: a shard that starts before any other has
	// finished simply builds with the node hint alone.
	nodeCounts := make([]int, len(groups))
	for i, g := range groups {
		for _, d := range g {
			nodeCounts[i] += countElements(d.Root)
		}
	}
	var trained atomic.Pointer[index.Stats]

	shards := make([]*index.Index, len(groups))
	errs := make([]error, len(groups))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o := opts.Index
				o.Hint.Nodes = nodeCounts[i]
				if st := trained.Load(); st != nil && st.ElementNodes > 0 {
					// Same-corpus shards share most of their vocabulary,
					// so the trained term count transfers unscaled; the
					// posting volume scales with the group's node share.
					o.Hint.Terms = st.DistinctKeywords
					o.Hint.Postings = st.PostingEntries * nodeCounts[i] / st.ElementNodes
				}
				repo := &xmltree.Repository{Docs: groups[i]}
				shards[i], errs[i] = index.Build(repo, o)
				if errs[i] == nil {
					trained.CompareAndSwap(nil, &shards[i].Stats)
				}
			}
		}()
	}
	for i := range groups {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return newSet(shards, opts.AllowPartial, opts.Index)
}

// Partition assigns documents to shard groups without building anything.
// Every group is sorted by DocID (a shard's pre-order node table must
// visit documents in increasing Dewey order) and empty groups are
// dropped. The assignment is deterministic: FNV-1a over the document name
// by default, greedy token-count balancing with ByTokens.
func Partition(docs []*xmltree.Document, opts Options) [][]*xmltree.Document {
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	if n > len(docs) {
		n = len(docs)
	}
	groups := make([][]*xmltree.Document, n)
	if opts.ByTokens {
		// Greedy LPT: heaviest document first onto the lightest shard.
		type weighted struct {
			doc    *xmltree.Document
			tokens int
		}
		ws := make([]weighted, len(docs))
		for i, d := range docs {
			ws[i] = weighted{doc: d, tokens: docTokens(d)}
		}
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].tokens > ws[j].tokens })
		loads := make([]int, n)
		for _, w := range ws {
			best := 0
			for s := 1; s < n; s++ {
				if loads[s] < loads[best] {
					best = s
				}
			}
			groups[best] = append(groups[best], w.doc)
			loads[best] += w.tokens
		}
		for _, g := range groups {
			sort.Slice(g, func(i, j int) bool { return g[i].DocID < g[j].DocID })
		}
	} else {
		for _, d := range docs {
			groups[RouteShard(d.Name, n)] = append(groups[RouteShard(d.Name, n)], d)
		}
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// countElements counts the element nodes under root — the exact
// index.SizeHint.Nodes for a shard group, at the cost of a structural walk
// (no text processing).
func countElements(root *xmltree.Node) int {
	total := 0
	xmltree.Walk(root, func(n *xmltree.Node) bool {
		if n.IsElement() {
			total++
		}
		return true
	})
	return total
}

// docTokens counts the indexable tokens of a document — the balance weight
// for ByTokens partitioning, proportional to the shard's posting volume.
func docTokens(d *xmltree.Document) int {
	total := 0
	xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Text {
			total += len(textproc.Tokenize(n.Text))
		}
		return true
	})
	return total
}

// newSet wraps built shard indexes, wiring engines and the doc→shard map.
func newSet(shards []*index.Index, allowPartial bool, ixOpts index.Options) (*Set, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: empty shard set")
	}
	s := &Set{
		shards:       shards,
		engines:      make([]*core.Engine, len(shards)),
		Generation:   1,
		allowPartial: allowPartial,
		ixOpts:       ixOpts,
	}
	for i, ix := range shards {
		s.engines[i] = core.NewEngine(ix)
	}
	docShard, err := computeDocShard(shards)
	if err != nil {
		return nil, err
	}
	s.docShard = docShard
	return s, nil
}

// computeDocShard builds the global document-id → shard map. Tombstoned
// documents are skipped: after a live delete their ids are free for the
// next append, and indexOfResult only ever resolves ids that appear in
// (live) search results.
func computeDocShard(shards []*index.Index) ([]int32, error) {
	// Document roots sit at ordinal 0 and every Subtree hop after it (the
	// node table is pre-order), so both passes below visit O(documents)
	// nodes, not O(nodes).
	maxDoc := int32(-1)
	for i, ix := range shards {
		for ord := int32(0); ord < int32(ix.NodeCount()); ord += ix.SubtreeSizeOf(ord) {
			if ix.SubtreeSizeOf(ord) <= 0 {
				return nil, fmt.Errorf("shard: shard %d has non-positive subtree at root %d", i, ord)
			}
			if !ix.LiveOrd(ord) {
				continue
			}
			if ix.DocOf(ord) > maxDoc {
				maxDoc = ix.DocOf(ord)
			}
		}
	}
	docShard := make([]int32, maxDoc+1)
	for i := range docShard {
		docShard[i] = -1
	}
	for i, ix := range shards {
		for ord := int32(0); ord < int32(ix.NodeCount()); ord += ix.SubtreeSizeOf(ord) {
			if !ix.LiveOrd(ord) {
				continue
			}
			doc := ix.DocOf(ord)
			if doc < 0 {
				return nil, fmt.Errorf("shard: shard %d holds negative document id %d", i, doc)
			}
			if docShard[doc] != -1 {
				return nil, fmt.Errorf("shard: document %d present in shards %d and %d", doc, docShard[doc], i)
			}
			docShard[doc] = int32(i)
		}
	}
	return docShard, nil
}

// SetMetrics installs the observability sink for scatter-gather searches.
// It must be called before the set serves concurrent traffic.
func (s *Set) SetMetrics(m Metrics) { s.metrics = m }

// SetAllowPartial switches degrade-to-partial search semantics on or off
// (builds take it from Options; manifest loads default to off). It must be
// called before the set serves concurrent traffic.
func (s *Set) SetAllowPartial(v bool) { s.allowPartial = v }

// NumShards returns the number of shards in the set.
func (s *Set) NumShards() int { return len(s.shards) }

// Indexes exposes the shard indexes (read-only; used by stats and tests).
func (s *Set) Indexes() []*index.Index { return s.shards }

// indexOfResult resolves the shard index holding a result — results carry
// global Dewey IDs, and Ord stays valid only within the owning shard.
func (s *Set) indexOfResult(r core.Result) *index.Index {
	return s.shards[s.docShard[r.ID.Doc]]
}

// ValidateIndex checks the structural invariants of every shard plus the
// cross-shard invariant that each document lives in exactly one shard
// (enforced at construction; revalidated here for loaded sets).
func (s *Set) ValidateIndex() error {
	for i, ix := range s.shards {
		if err := ix.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates index statistics across the shards. Additive counters
// sum; DistinctKeywords counts the union of shard vocabularies (a keyword
// appearing in several shards is one keyword); MaxDepth is the maximum.
func (s *Set) Stats() index.Stats {
	var out index.Stats
	distinct := make(map[string]struct{})
	for _, ix := range s.shards {
		st := ix.Stats
		out.Documents += st.Documents
		out.ElementNodes += st.ElementNodes
		out.TextNodes += st.TextNodes
		out.AttributeNodes += st.AttributeNodes
		out.RepeatingNodes += st.RepeatingNodes
		out.EntityNodes += st.EntityNodes
		out.ConnectingNodes += st.ConnectingNodes
		out.PostingEntries += st.PostingEntries
		if st.MaxDepth > out.MaxDepth {
			out.MaxDepth = st.MaxDepth
		}
		ix.ForEachKeyword(func(kw string, _ int) {
			distinct[kw] = struct{}{}
		})
	}
	out.DistinctKeywords = len(distinct)
	return out
}
