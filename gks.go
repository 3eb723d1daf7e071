// Package gks is a from-scratch Go implementation of Generic Keyword
// Search over XML data (Agarwal, Ramamritham, Agarwal — EDBT 2016).
//
// GKS generalizes LCA-based XML keyword search: for a query Q and a
// threshold s ≤ |Q|, it returns every meaningful XML node whose subtree
// contains at least min(s, |Q|) distinct query keywords, ranks the results
// with a potential-flow model, and mines Deeper Analytical Insights (DI) —
// the most relevant attribute keywords together with their schema context —
// from the Least Common Entity (LCE) nodes of the response. SLCA and ELCA
// baselines are included for comparison.
//
// Basic usage:
//
//	doc, _ := gks.ParseDocument(strings.NewReader(xmlData), "catalog.xml")
//	sys, _ := gks.IndexDocuments(doc)
//	q := gks.ParseQuery(`"Peter Buneman" "Wenfei Fan" 2001`)
//	resp, _ := sys.Search(context.Background(), gks.SearchRequest{Query: q, S: 1})
//	for _, r := range resp.Results {
//	    fmt.Println(r.ID, r.Label, r.Rank)
//	}
//	for _, in := range sys.Insights(resp, 5) {
//	    fmt.Println(in) // e.g. <inproceedings: journal: SIGMOD Record>
//	}
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction results.
package gks

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/di"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/schema"
	"repro/internal/segment"
	"repro/internal/snippet"
	"repro/internal/textproc"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Re-exported types. The implementation lives in internal packages; these
// aliases form the public surface.
type (
	// Document is a parsed XML document (a labeled, ordered tree with
	// Dewey identifiers).
	Document = xmltree.Document
	// Node is one node of a document tree.
	Node = xmltree.Node
	// Query is a GKS keyword query; quoted phrases act as one keyword.
	Query = core.Query
	// Keyword is one unit of a query.
	Keyword = core.Keyword
	// SearchRequest is one query as Searcher.Search takes it: Q, the
	// threshold s or best effort, and how many results to return.
	SearchRequest = core.SearchRequest
	// Response is a ranked GKS search response R_Q(s).
	Response = core.Response
	// Result is one ranked response node.
	Result = core.Result
	// Insight is one Deeper Analytical Insight.
	Insight = di.Insight
	// IndexStats summarizes a built index (node-category distribution,
	// posting counts, depth).
	IndexStats = index.Stats
	// Category is the node-categorization bit set (AN/RN/EN/CN).
	Category = index.Category
)

// Node category bits (§2.2 of the paper).
const (
	AttributeNode  = index.Attribute
	RepeatingNode  = index.Repeating
	EntityNode     = index.Entity
	ConnectingNode = index.Connecting
)

// System bundles an index with the search and analysis engines. It is safe
// for concurrent readers once built.
type System struct {
	ix     *index.Index
	engine *core.Engine
	an     *di.Analyzer
	repo   *xmltree.Repository // nil when loaded from a saved index
	seg    *segment.Reader     // nil unless loaded from a GKS4 segment

	vocabOnce sync.Once
	vocab     map[string]int
}

// ParseDocument parses one XML document from r. XML attributes are
// normalized into leading child elements.
func ParseDocument(r io.Reader, name string) (*Document, error) {
	return xmltree.Parse(r, 0, name)
}

// ParseDocumentString parses an XML document held in a string.
func ParseDocumentString(src, name string) (*Document, error) {
	return xmltree.ParseString(src, 0, name)
}

// ParseDocumentFile parses one XML document from the file at path; the
// path becomes the document name.
func ParseDocumentFile(path string) (*Document, error) {
	return xmltree.ParseFile(path, 0)
}

// BuildDocument wraps a programmatically built tree (see E, ET, T) in a
// document and assigns Dewey identifiers.
func BuildDocument(name string, root *Node) *Document {
	return xmltree.NewDocument(name, 0, root)
}

// E constructs an element node with the given label and children.
func E(label string, children ...*Node) *Node { return xmltree.E(label, children...) }

// ET constructs an element that directly contains a single text value.
func ET(label, value string) *Node { return xmltree.ET(label, value) }

// T constructs a text node.
func T(value string) *Node { return xmltree.T(value) }

// IndexDocuments indexes one or more documents as a single searchable
// repository. Documents are renumbered in order.
func IndexDocuments(docs ...*Document) (*System, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("gks: no documents")
	}
	repo := &xmltree.Repository{}
	for _, d := range docs {
		repo.Add(d)
	}
	ix, err := index.Build(repo, index.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return newSystem(ix, repo), nil
}

// IndexFiles parses and indexes the XML files at the given paths.
func IndexFiles(paths ...string) (*System, error) {
	docs := make([]*Document, 0, len(paths))
	for _, p := range paths {
		d, err := xmltree.ParseFile(p, 0)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return IndexDocuments(docs...)
}

// FileError records one input file that failed to parse during lenient
// indexing.
type FileError struct {
	Path string
	Err  error
}

func (e FileError) Error() string { return e.Path + ": " + e.Err.Error() }

func (e FileError) Unwrap() error { return e.Err }

// IndexFilesLenient parses and indexes the XML files at the given paths in
// partial-failure mode: files that fail to open or parse are skipped and
// reported in the returned FileError list instead of failing the whole
// batch — the ingestion semantics a production crawler needs when one bad
// document must not block a million good ones. An error is returned only
// when no file could be indexed at all.
func IndexFilesLenient(paths ...string) (*System, []FileError, error) {
	docs := make([]*Document, 0, len(paths))
	var skipped []FileError
	for _, p := range paths {
		d, err := xmltree.ParseFile(p, 0)
		if err != nil {
			skipped = append(skipped, FileError{Path: p, Err: err})
			continue
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		if len(skipped) > 0 {
			return nil, skipped, fmt.Errorf("gks: no indexable files: all %d input file(s) failed to parse", len(skipped))
		}
		return nil, nil, fmt.Errorf("gks: no documents")
	}
	sys, err := IndexDocuments(docs...)
	return sys, skipped, err
}

// IndexFilesStreaming indexes the XML files in a single streaming pass
// each, without materializing the document trees — peak memory is
// O(depth + index), which is how the paper-scale 1.45 GB DBLP dump fits on
// a laptop. Tree-dependent features (Chunk, Snippet, XPath)
// are unavailable on the resulting system; everything else behaves
// identically to IndexFiles (the two builds produce equal indexes).
func IndexFilesStreaming(paths ...string) (*System, error) {
	ix, err := index.BuildStreamFiles(paths, index.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return newSystem(ix, nil), nil
}

// ErrCorruptIndex reports that a persisted index is damaged — truncated,
// bit-flipped, or not an index at all. LoadIndex and LoadIndexFile wrap it
// into their errors (match with errors.Is); the gksd startup and reload
// paths use it to distinguish a bad snapshot from a missing one.
var ErrCorruptIndex = index.ErrCorrupt

// LoadIndex restores a system from an index stream of any eager format
// (SaveSnapshot's GKS3, bare GKSI, or a legacy gob image). Result chunks (Chunk) are unavailable without the documents.
func LoadIndex(r io.Reader) (*System, error) {
	ix, err := index.Load(r)
	if err != nil {
		return nil, err
	}
	return newSystem(ix, nil), nil
}

// LoadIndexFile restores a system from an index file of any persisted
// format: a GKS4 segment is opened lazily (footer + meta only, posting
// blocks fetched on demand behind the default block cache); GKS3/GKSI/gob
// files decode fully into memory as before.
func LoadIndexFile(path string) (*System, error) {
	return LoadIndexFileOpts(path, SegmentOptions{})
}

// SegmentOptions tunes how a GKS4 segment is served when a load hits one;
// the zero value is ready to use. They are ignored for eager formats.
type SegmentOptions struct {
	// Cache is a shared block cache (see segment.NewBlockCache); nil gives
	// the reader a private cache of CacheBytes capacity. Sharing one cache
	// across hot-reload generations keeps the process-wide block budget a
	// single number.
	Cache *segment.BlockCache
	// CacheBytes is the private cache capacity when Cache is nil; 0 means
	// segment.DefaultCacheBytes.
	CacheBytes int64
	// Metrics receives block-cache and block-fetch observations (the obs
	// Registry implements it). Nil discards them.
	Metrics segment.Metrics
}

// LoadIndexFileOpts is LoadIndexFile with explicit segment-serving
// options.
func LoadIndexFileOpts(path string, opts SegmentOptions) (*System, error) {
	if segment.IsSegmentFile(path) {
		r, err := segment.OpenFile(path, segment.Options{
			Cache:      opts.Cache,
			CacheBytes: opts.CacheBytes,
			Metrics:    opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		sys := newSystem(r.Index(), nil)
		sys.seg = r
		return sys, nil
	}
	ix, err := index.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return newSystem(ix, nil), nil
}

// Segment returns the GKS4 segment reader backing this system, or nil
// when the index is fully resident (built in process or loaded from an
// eager format).
func (s *System) Segment() *segment.Reader { return s.seg }

// CloseIndex releases the resources of a segment-backed system (the file
// descriptor and its block-cache share). It must only be called once no
// searches are in flight; retired hot-reload generations that cannot
// guarantee that simply drop the System and let the finalizer reclaim the
// descriptor. No-op for fully resident systems.
func (s *System) CloseIndex() error {
	if s.seg == nil {
		return nil
	}
	return s.seg.Close()
}

func newSystem(ix *index.Index, repo *xmltree.Repository) *System {
	eng := core.NewEngine(ix)
	return &System{ix: ix, engine: eng, an: di.New(eng), repo: repo}
}

// Packed returns s: every system serves from the DAG-compressed packed
// node table. It is kept for the benchmark harness, which still calls it.
func (s *System) Packed() *System { return s }

// SaveIndexFile persists the index ("a onetime activity", §2.4) to a file
// in the checksummed snapshot format (v3), atomically: a crash or full
// disk mid-save never destroys a previous snapshot at path. The legacy gob
// format is import-only: LoadIndex and LoadIndexFile still read it,
// nothing writes it.
func (s *System) SaveIndexFile(path string) error { return s.ix.SaveFile(path) }

// SaveSnapshot streams the index in the checksummed snapshot format (v3)
// — the same bytes SaveIndexFile writes, without the atomic-file
// discipline. The replication leader uses it to serve point-in-time
// snapshots to joining followers over HTTP. A segment-backed system
// streams its lists from the segment one at a time, so a leader serving
// a corpus larger than RAM stays memory-bounded here too.
func (s *System) SaveSnapshot(w io.Writer) error { return s.ix.SaveSnapshot(w) }

// SaveSegmentFile persists the index as a GKS4 segment
// at path, atomically. A segment-loaded system round-trips without
// materializing its postings; an in-memory system converts down. This is
// the `gks index -format=gks4` / `gks convert` backend.
func (s *System) SaveSegmentFile(path string) error {
	return segment.WriteFile(path, s.ix)
}

// ReadIndexStats returns the statistics of a persisted index at path
// without building a searchable system: a GKS4 segment reads only its
// footer (no posting block, not even the node table is decoded); a GKS3,
// GKSI or gob file is loaded in full, which verifies it.
func ReadIndexStats(path string) (IndexStats, error) {
	if segment.IsSegmentFile(path) {
		return segment.ReadStats(path)
	}
	ix, err := index.LoadFile(path)
	if err != nil {
		return IndexStats{}, err
	}
	return ix.Stats, nil
}

// ValidateIndex checks the structural invariants of the underlying index
// (label/parent/subtree ranges, sorted posting lists). The gksd reload
// path runs it between loading a candidate snapshot and swapping it into
// service.
func (s *System) ValidateIndex() error { return s.ix.Validate() }

// Stats returns the index statistics (Tables 4–5 of the paper).
func (s *System) Stats() IndexStats { return s.ix.Stats }

// KeywordFreq pairs a normalized keyword with its posting-list length.
type KeywordFreq = index.KeywordFreq

// LabelCount pairs an element label with instance and category counts.
type LabelCount = index.LabelCount

// TopKeywords returns the k most frequent normalized keywords (k <= 0
// returns all).
func (s *System) TopKeywords(k int) []KeywordFreq { return s.ix.TopKeywords(k) }

// LabelHistogram returns per-label instance counts with category splits.
func (s *System) LabelHistogram() []LabelCount { return s.ix.LabelHistogram() }

// DepthHistogram returns element counts per tree depth (0 = roots).
func (s *System) DepthHistogram() []int { return s.ix.DepthHistogram() }

// ParseQuery parses a query string with double-quoted phrases.
func ParseQuery(input string) Query { return core.ParseQuery(input) }

// NewQuery builds a query from pre-split terms; terms containing spaces
// become phrase keywords.
func NewQuery(terms ...string) Query { return core.NewQuery(terms...) }

// Search answers one request: the k best results of R_Q(s) (TopK = k; 0
// returns all of them), at the request's threshold s clamped to [1, |Q|]
// or, with BestEffort, at the largest s with a non-empty response — as
// much of the query as the data supports; the effective s is reported in
// Response.S. Cancellation is cooperative: the engine polls ctx inside the
// S_L merge, the window scan and the rank sweep, so a timed-out request
// frees its CPU at the next checkpoint rather than completing in the
// background.
func (s *System) Search(ctx context.Context, req SearchRequest) (*Response, error) {
	return s.engine.SearchCtx(ctx, req)
}

// SearchContext parses the query string and searches it at threshold s.
// It is kept, off the Searcher interface, for the benchmark harness until
// that harness wraps Search; new code calls Search.
func (s *System) SearchContext(ctx context.Context, query string, threshold int) (*Response, error) {
	return s.Search(ctx, SearchRequest{Query: ParseQuery(query), S: threshold})
}

// SearchQuery searches an already-built query at threshold s. Like
// SearchContext it is kept for the benchmark harness; new code calls
// Search.
func (s *System) SearchQuery(q Query, threshold int) (*Response, error) {
	return s.Search(context.Background(), SearchRequest{Query: q, S: threshold})
}

// Explanation traces a search through the GKS pipeline (posting sizes,
// |S_L|, window blocks, candidates, witness survivors and stage timings).
type Explanation = core.Explanation

// Explain runs q at threshold s while recording pipeline diagnostics; the
// embedded Response is identical to Search's. The engine polls ctx between
// pipeline stages, so a timed-out explain frees its CPU instead of
// finishing detached.
func (s *System) Explain(ctx context.Context, q Query, threshold int) (*Explanation, error) {
	return s.engine.Explain(ctx, q, threshold)
}

// Insights discovers the top-m Deeper Analytical Insights of a response
// (§2.3, §6.2). m <= 0 returns all insights.
func (s *System) Insights(resp *Response, m int) []Insight {
	return s.an.Discover(resp, m)
}

// InsightRound is one step of recursive DI discovery.
type InsightRound = di.Round

// InsightsRecursive applies DI discovery recursively (§2.3) on any
// Searcher: each round searches at threshold s and feeds the previous
// round's top-m insight values back as a query.
func InsightsRecursive(ctx context.Context, sys Searcher, q Query, threshold, m, rounds int) ([]InsightRound, error) {
	search := func(q Query) (*Response, error) {
		return sys.Search(ctx, SearchRequest{Query: q, S: threshold})
	}
	return di.DiscoverRecursive(q, m, rounds, search, sys.Insights)
}

// Refinements proposes sub-queries matching the keyword subsets of the
// top-ranked results of a response (§6.1).
func Refinements(resp *Response, topK int) []Query { return di.Refinements(resp, topK) }

// Augmentations combines a query with top insight values — the "adding
// keywords" refinement direction of §7.4.
func Augmentations(q Query, insights []Insight, topK int) []Query {
	return di.Augmentations(q, insights, topK)
}

// SLCA runs the Smallest-LCA baseline and returns the Dewey IDs of the
// answer nodes in document order.
func (s *System) SLCA(q Query) []string {
	return s.ordsToIDs(lca.SLCA(s.ix, s.engine.PostingLists(q)))
}

// ELCA runs the Exclusive-LCA baseline.
func (s *System) ELCA(q Query) []string {
	return s.ordsToIDs(lca.ELCA(s.ix, s.engine.PostingLists(q)))
}

func (s *System) ordsToIDs(ords []int32) []string {
	out := make([]string, len(ords))
	for i, o := range ords {
		out[i] = s.ix.IDOf(o).String()
	}
	return out
}

// XPath evaluates a structural query (a compact XPath subset — child and
// descendant axes, wildcards, value/existence/positional predicates; see
// internal/xpath) over the indexed documents. It is the structured-query
// counterpoint the paper's introduction motivates GKS against, and it
// requires the system to have been built from documents.
func (s *System) XPath(expr string) ([]*Node, error) {
	if s.repo == nil {
		return nil, fmt.Errorf("gks: XPath unavailable on a system loaded from a saved index")
	}
	e, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	return e.EvaluateRepo(s.repo), nil
}

// SchemaEdge is one parent→child relationship of the inferred schema.
type SchemaEdge = schema.Edge

// Schema infers the structural schema summary (parent→child element edges
// with repetition flags) from the indexed instances.
func (s *System) Schema() []SchemaEdge {
	return schema.Infer(s.ix).Edges()
}

// ApplySchemaCategorization re-categorizes every node against the inferred
// schema instead of its own instance — the extension the paper proposes as
// future work in §2.2. A node whose label repeats *somewhere* in the data
// counts as repeating everywhere, so e.g. single-author articles classify
// as entity nodes like their multi-author siblings. It returns the number
// of nodes whose category changed; subsequent searches use the new entity
// structure.
func (s *System) ApplySchemaCategorization() int {
	return schema.Apply(s.ix, schema.Infer(s.ix).Categorize(s.ix))
}

// NodeTableBytes reports the exact heap footprint of the index's packed
// (DAG-compressed) node table. See index.NodeTableBytes.
func (s *System) NodeTableBytes() int64 { return s.ix.NodeTableBytes() }

// CategoryOf reports the node categorization of the element with the given
// Dewey ID string (e.g. "0.0.1"), and whether the node exists.
func (s *System) CategoryOf(deweyID string) (Category, bool) {
	id, err := parseDewey(deweyID)
	if err != nil {
		return 0, false
	}
	ord, ok := s.ix.OrdinalOf(id)
	if !ok {
		return 0, false
	}
	return s.ix.CatOf(ord), true
}

// SnippetLine is one line of a highlighted result preview.
type SnippetLine = snippet.Line

// Snippet renders a compact, match-highlighted preview of a result's value
// lines (maxLines <= 0 uses a default). It requires documents.
func (s *System) Snippet(resp *Response, res Result, maxLines int) ([]SnippetLine, error) {
	if s.repo == nil {
		return nil, fmt.Errorf("gks: snippets unavailable on a system loaded from a saved index")
	}
	n := s.repo.FindByID(res.ID)
	if n == nil {
		return nil, fmt.Errorf("gks: node %s not found", res.ID)
	}
	return snippet.Build(resp, n, snippet.Options{MaxLines: maxLines, KeepUnmatched: true}), nil
}

// TypeScore is one inferred result type (XReal-style confidence).
type TypeScore = di.TypeScore

// InferResultTypes ranks entity labels by their confidence of being the
// query's target node type — the related-work "result type deduction"
// (XReal/XBridge) direction, driven by how many entities of each label
// contain every query keyword.
func (s *System) InferResultTypes(query string, topK int) []TypeScore {
	return di.InferResultTypes(s.engine, ParseQuery(query), topK)
}

// Suggestion is a did-you-mean candidate for a misspelled keyword.
type Suggestion = textproc.Suggestion

// Suggest returns the indexed keywords within maxDist edits of the input —
// did-you-mean for keywords with empty posting lists.
func (s *System) Suggest(keyword string, maxDist, topK int) []Suggestion {
	s.vocabOnce.Do(func() {
		// Stats.DistinctKeywords sizes the map for lazy indexes too, where
		// the Postings map is nil but the term directory is resident.
		s.vocab = make(map[string]int, s.ix.Stats.DistinctKeywords)
		s.ix.ForEachKeyword(func(kw string, live int) {
			s.vocab[kw] = live
		})
	})
	return textproc.Suggest(keyword, s.vocab, maxDist, topK)
}

// HasMatches reports whether the keyword (after normalization) has any
// postings — the trigger for Suggest.
func (s *System) HasMatches(keyword string) bool {
	return len(s.ix.Lookup(keyword)) > 0
}

// PrunedChunk renders a MaxMatch-style pruned XML fragment of a result:
// matching branches plus their attribute context, with irrelevant siblings
// removed. It requires documents.
func (s *System) PrunedChunk(resp *Response, res Result) (string, error) {
	if s.repo == nil {
		return "", fmt.Errorf("gks: chunks unavailable on a system loaded from a saved index")
	}
	n := s.repo.FindByID(res.ID)
	if n == nil {
		return "", fmt.Errorf("gks: node %s not found", res.ID)
	}
	pruned := snippet.PrunedClone(resp, n)
	if pruned == nil {
		return "", nil
	}
	return renderChunk(pruned), nil
}

// Chunk renders the XML subtree of a result — the "well-constructed XML
// chunk" the paper's system returns. It requires the system to have been
// built from documents (not loaded from a bare index).
func (s *System) Chunk(res Result) (string, error) {
	if s.repo == nil {
		return "", fmt.Errorf("gks: chunks unavailable on a system loaded from a saved index")
	}
	n := s.repo.FindByID(res.ID)
	if n == nil {
		return "", fmt.Errorf("gks: node %s not found", res.ID)
	}
	return renderChunk(n), nil
}
