package index

import (
	"sort"
	"sync"
)

// Lazily-backed indexes: an Index whose posting lists live behind a
// PostingSource (a GKS4 segment reader, internal/segment) instead of the
// in-memory Postings map. The node table, labels, document names and
// statistics are always resident — the search engine reads the node table
// directly — but posting lists are fetched on demand, which is what bounds
// the resident memory of a serving process to the block cache rather than
// the corpus.
//
// A lazy index answers every read-path accessor (PostingsFor,
// ForEachKeyword, LiveSpans, Lookup, ...) identically to its materialized
// twin. Fetch failures cannot surface through PostingsFor's historical
// []int32 signature, so they poison the index (LazyErr) and the query
// engine checks the poison after gathering lists — queries fail loudly,
// never silently with an empty list. Mutation and persistence paths
// (DeleteDoc, AppendAs, Save) materialize first: a lazy index is an
// immutable serving view, and tombstones never coexist with laziness.

// PostingSource provides posting lists for a lazily-backed index.
// Implementations must be safe for concurrent use.
type PostingSource interface {
	// Postings returns the sorted posting list for term, or (nil, nil)
	// when the term is absent. The caller owns the returned slice.
	Postings(term string) ([]int32, error)
	// ForEachTerm calls f for every term in sorted lexicographic order
	// with its posting count, without fetching any list. It returns only
	// f's error: the term directory is resident, so iteration itself
	// cannot fail.
	ForEachTerm(f func(term string, count int) error) error
	// TermCount returns the number of distinct terms.
	TermCount() int
}

// lazyState is the shared mutable state of a lazily-backed index. It is
// held by pointer so Index values stay copyable.
type lazyState struct {
	src PostingSource
	mu  sync.Mutex
	err error
}

func (l *lazyState) poison(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

func (l *lazyState) sticky() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// NewLazy turns meta — an Index holding labels, document names, the node
// table and statistics, but no posting lists (as decoded by DecodeMeta) —
// into a lazily-backed index served from src. meta is returned for
// convenience; it must not be used independently afterwards.
func NewLazy(meta *Index, src PostingSource) *Index {
	meta.Postings = nil
	meta.tomb = nil
	meta.lazy = &lazyState{src: src}
	return meta
}

// IsLazy reports whether posting lists are served from a PostingSource.
func (ix *Index) IsLazy() bool { return ix.lazy != nil }

// LazyErr returns the first posting-fetch failure of a lazily-backed
// index, or nil. The error is sticky: once a fetch fails the index is
// considered broken (the backing file is damaged or gone) and every
// subsequent query must check this. Always nil for eager indexes.
func (ix *Index) LazyErr() error {
	if ix.lazy == nil {
		return nil
	}
	return ix.lazy.sticky()
}

// Materialized returns an eager equivalent of the index: for a lazy index
// every posting list is fetched into a fresh Postings map (the node table
// and label/doc tables are shared — they are immutable); an already-eager
// index is returned as-is. Mutation and gob-persistence paths call this
// because they operate on the Postings map directly.
func (ix *Index) Materialized() (*Index, error) {
	if ix.lazy == nil {
		return ix, nil
	}
	src := ix.lazy.src
	cp := &Index{
		Labels:   ix.Labels,
		DocNames: ix.DocNames,
		Stats:    ix.Stats,
		labelIDs: ix.labelIDs,
		Postings: make(map[string][]int32, src.TermCount()),
		packed:   ix.packed,
	}
	err := src.ForEachTerm(func(term string, _ int) error {
		list, err := src.Postings(term)
		if err != nil {
			return err
		}
		cp.Postings[term] = list
		return nil
	})
	if err != nil {
		ix.lazy.poison(err)
		return nil, err
	}
	return cp, nil
}

// keywordCount returns the number of distinct keywords with at least one
// live posting — the count ForEachKeywordSorted will visit.
func (ix *Index) keywordCount() int {
	if ix.lazy != nil {
		return ix.lazy.src.TermCount()
	}
	if ix.tomb == nil {
		return len(ix.Postings)
	}
	n := 0
	ix.ForEachKeyword(func(string, int) { n++ })
	return n
}

// ForEachKeywordSorted calls f once per keyword in sorted lexicographic
// order with its live posting list. For a lazy index the lists stream
// from the source one at a time — this is how save/convert paths
// serialize a segment-backed index without materializing it. Source fetch
// failures poison the index and abort the iteration.
func (ix *Index) ForEachKeywordSorted(f func(keyword string, list []int32) error) error {
	if ix.lazy != nil {
		src := ix.lazy.src
		return src.ForEachTerm(func(term string, _ int) error {
			list, err := src.Postings(term)
			if err != nil {
				ix.lazy.poison(err)
				return err
			}
			return f(term, list)
		})
	}
	keys := make([]string, 0, len(ix.Postings))
	for k := range ix.Postings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		list := ix.PostingsFor(k)
		if len(list) == 0 {
			continue // fully tombstoned
		}
		if err := f(k, list); err != nil {
			return err
		}
	}
	return nil
}

// Fields returns the statistics in the serialization order of GKSI —
// exported for sibling on-disk formats (the GKS4 segment footer).
func (s *Stats) Fields() []int { return s.fields() }

// SetFields assigns the statistics from the GKSI serialization
// order; v must hold StatsFieldCount values.
func (s *Stats) SetFields(v []int) { s.setFields(v) }

// StatsFieldCount is the number of values Fields returns.
const StatsFieldCount = statsFieldCount
