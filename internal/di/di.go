// Package di implements the GKS Search Analysis Engine (Agarwal et al.,
// EDBT 2016, §2.3 and §6): discovery of Deeper Analytical Insights (DI) —
// the most relevant attribute keywords, with their schema semantics, in the
// context of a query — and query refinement.
//
// For every LCE node e in the ranked response, the value-carrying nodes
// whose lowest entity ancestor is e — its attribute nodes, plus repeating
// text nodes such as DBLP's <author> elements, which the paper's Example 2
// DI exposes — contribute their values to the weighted set S_w^Q; each
// contribution is weighted by rank(e), so an insight popular
// only inside low-ranked results (the paper's <booktitle: ICPP> example,
// §6.2) loses to insights relevant to the largest, highest-ranked subset of
// query keywords (<journal: SIGMOD Record>). The top-m weighted entries,
// each carrying the element path from the LCE node to the attribute (its
// "semantics"), form the DI. Insights containing query keywords are
// excluded. Applying the discovery recursively — feeding the top-m values
// back as a query — yields the paper's R^r_Q(s) rounds.
package di

import (
	"container/heap"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/textproc"
)

// Insight is one DI element: an attribute value with its schema context.
type Insight struct {
	// Value is the raw attribute value, e.g. "SIGMOD Record".
	Value string
	// Path lists the element labels from the LCE node down to the
	// attribute node, e.g. [inproceedings, journal] — the semantics that
	// distinguish <year: 2001> from a street number 2001 (§1.2).
	Path []string
	// Weight is the summed rank of the LCE result nodes exposing the value.
	Weight float64
	// Count is the number of LCE result nodes exposing the value.
	Count int
	// Example identifies one attribute node carrying the value.
	Example dewey.ID
}

// String renders the insight like the paper: <ip: journal: SIGMOD Record>.
func (in Insight) String() string {
	return "<" + strings.Join(in.Path, ": ") + ": " + in.Value + ">"
}

// Analyzer discovers DI over a search engine's responses.
type Analyzer struct {
	eng *core.Engine
}

// New returns an analyzer bound to the engine whose responses it analyzes.
func New(eng *core.Engine) *Analyzer { return &Analyzer{eng: eng} }

// Discover returns the top-m insights for a response (Def 2.3.1). m <= 0
// returns every insight. The response must come from the analyzer's engine.
func (a *Analyzer) Discover(resp *core.Response, m int) []Insight {
	ix := a.eng.Index()
	return DiscoverIndexed(func(core.Result) *index.Index { return ix }, resp, m)
}

// DiscoverIndexed is the engine-agnostic core of DI discovery: ixOf maps
// each response node to the index holding it (and interpreting its Ord).
// A single-index system always resolves to its one index; the sharded
// searcher resolves each result to the shard owning the result's
// document, which makes sharded DI byte-identical to single-index DI —
// results are visited in the same (global rank) order, so the weight sums
// accumulate in the same floating-point order.
//
// The §6.2 exclusion of query keywords runs after ranking: whether a value
// holds one does not depend on the other values, so walking the ranked list
// until m insights have passed yields the same top-m while tokenizing and
// stemming about m values, not every occurrence under every result.
func DiscoverIndexed(ixOf func(core.Result) *index.Index, resp *core.Response, m int) []Insight {
	queryTokens := resp.Query.TokenSet()
	type key struct {
		path  string
		value string
	}
	acc := make(map[key]int) // index into tallies
	var tallies []tally
	for _, r := range resp.Results {
		if !r.IsEntity {
			continue
		}
		ix := ixOf(r)
		for _, attr := range ix.ValueNodesUnder(r.Ord) {
			value := ix.ValueAt(attr)
			path := ix.PathLabels(r.Ord, attr)
			k := key{path: strings.Join(path, "/"), value: value}
			i, ok := acc[k]
			if !ok {
				// The first occurrence is kept as the example; its Dewey ID
				// is materialized only if the insight makes the top m.
				i = len(tallies)
				tallies = append(tallies, tally{
					Insight:   Insight{Value: value, Path: path},
					pathKey:   k.path,
					exampleIx: ix,
					example:   attr,
				})
				acc[k] = i
			}
			tallies[i].Weight += r.Rank
			tallies[i].Count++
		}
	}
	// Pop insights best first until m have passed the §6.2 exclusion: a
	// heap orders only as many as the walk consumes.
	h := tallyHeap(tallies)
	heap.Init(&h)
	n := len(tallies)
	if m > 0 {
		n = min(n, m)
	}
	kept := make([]Insight, 0, n)
	for h.Len() > 0 && len(kept) < cap(kept) {
		t := heap.Pop(&h).(tally)
		if containsQueryToken(t.Value, queryTokens) { // §6.2: not in S_w^Q
			continue
		}
		t.Example = t.exampleIx.IDOf(t.example)
		kept = append(kept, t.Insight)
	}
	return kept
}

// tally is an insight under accumulation, with its joined path for the
// order and its first occurrence, whose Dewey ID becomes Example if the
// insight is kept.
type tally struct {
	Insight
	pathKey   string
	exampleIx *index.Index
	example   int32
}

// better is DI's total order: heavier first, then more frequent, then by
// value and path. The tiebreak runs down to the path — (path, value) is
// the accumulation key — so the order never depends on the accumulator
// map's random iteration, and sharded and single-index discovery keep
// the same insights in the same order.
func better(x, y *tally) bool {
	if x.Weight != y.Weight {
		return x.Weight > y.Weight
	}
	if x.Count != y.Count {
		return x.Count > y.Count
	}
	if x.Value != y.Value {
		return x.Value < y.Value
	}
	return x.pathKey < y.pathKey
}

// tallyHeap is a heap of tallies, best first under better.
type tallyHeap []tally

func (h tallyHeap) Len() int           { return len(h) }
func (h tallyHeap) Less(i, j int) bool { return better(&h[i], &h[j]) }
func (h tallyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *tallyHeap) Push(x any)        { *h = append(*h, x.(tally)) }
func (h *tallyHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func containsQueryToken(value string, queryTokens map[string]bool) bool {
	for _, tok := range textproc.Tokenize(value) {
		if queryTokens[textproc.Stem(tok)] {
			return true
		}
	}
	return false
}

// Round is one recursion step of DI discovery: the response R^r_Q(s) and
// the insights extracted from it.
type Round struct {
	Query    core.Query
	Response *core.Response
	Insights []Insight
}

// DiscoverRecursive runs the recursive DI procedure of §2.3 over any
// searcher: round 0 searches q and extracts the top-m insights of the
// response; each following round feeds the previous round's top-m insight
// values back to GKS as a new query. It stops early when a round yields no
// insights. rounds is the total number of rounds (>= 1). search runs one
// query at the caller's threshold, and insights must accept its responses.
func DiscoverRecursive(q core.Query, m, rounds int, search func(core.Query) (*core.Response, error), insights func(*core.Response, int) []Insight) ([]Round, error) {
	if rounds < 1 {
		rounds = 1
	}
	var out []Round
	cur := q
	for r := 0; r < rounds; r++ {
		resp, err := search(cur)
		if err != nil {
			return out, fmt.Errorf("di: round %d: %w", r, err)
		}
		ins := insights(resp, m)
		out = append(out, Round{Query: cur, Response: resp, Insights: ins})
		if len(ins) == 0 {
			break
		}
		terms := make([]string, 0, len(ins))
		for _, in := range ins {
			terms = append(terms, in.Value)
		}
		next := core.NewQuery(terms...)
		if next.Len() == 0 {
			break
		}
		cur = next
	}
	return out, nil
}

// Refinements implements §6.1: it proposes sub-queries of q matching the
// distinct keyword subsets of the highest-ranked response nodes, in rank
// order — e.g. for the paper's Q3 = {a,b,c,d} the suggestions are {a,b,c}
// and {a,b,d}. At most topK suggestions are returned; subsets equal to the
// full query are skipped (nothing to refine).
func Refinements(resp *core.Response, topK int) []core.Query {
	full := uint64(1)<<uint(resp.Query.Len()) - 1
	seen := map[uint64]bool{}
	var out []core.Query
	for _, r := range resp.Results {
		if topK > 0 && len(out) >= topK {
			break
		}
		if r.Mask == full || seen[r.Mask] {
			continue
		}
		seen[r.Mask] = true
		var terms []string
		for i, kw := range resp.Query.Keywords {
			if r.Mask&(1<<uint(i)) != 0 {
				terms = append(terms, kw.Raw)
			}
		}
		if len(terms) == 0 {
			continue
		}
		out = append(out, core.NewQuery(terms...))
	}
	return out
}

// Augmentations implements the "adding keywords" direction of §6.1/§7.4:
// it combines q with each of the top insights' values, as in the paper's
// QD1 example where <author: Marek Rusinkiewicz> refines the query. Each
// returned query is q plus one insight value.
func Augmentations(q core.Query, insights []Insight, topK int) []core.Query {
	var out []core.Query
	for _, in := range insights {
		if topK > 0 && len(out) >= topK {
			break
		}
		terms := make([]string, 0, q.Len()+1)
		for _, kw := range q.Keywords {
			terms = append(terms, kw.Raw)
		}
		terms = append(terms, in.Value)
		out = append(out, core.NewQuery(terms...))
	}
	return out
}
