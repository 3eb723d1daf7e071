// Package core implements the GKS Search Engine — the primary contribution
// of Agarwal et al., "Generic Keyword Search over XML Data" (EDBT 2016).
//
// For a keyword query Q and a threshold s ≤ |Q|, the engine returns every
// meaningful XML node whose subtree contains at least min(s, |Q|) distinct
// query keywords (§1.1), resolved through the paper's machinery:
//
//   - the per-keyword inverted-index lists are merged into the Dewey-sorted
//     list S_L (§4.1);
//   - a sliding block collects s *unique* keywords and contributes the
//     longest common prefix of its ends to the LCP candidate list (Lemma 6);
//   - each candidate is lifted to its Least Common Entity node — itself or
//     its lowest entity ancestor (§2.2, Def 2.2.1) — with candidates that
//     have no entity ancestor kept as plain LCP nodes;
//   - candidates survive only with an independent witness: a query keyword
//     in their subtree that no candidate below them contains (Lemmas 4–5,
//     Claims 1–2); this also generalizes the SLCA semantics the paper's
//     Table 1 illustrates (ancestors that add no new keyword are pruned);
//   - survivors are ranked with the potential-flow model of §5.
package core

import (
	"fmt"
	"strings"

	"repro/internal/textproc"
)

// Keyword is one unit of a query: a single term or a quoted phrase. A
// phrase matches nodes whose text contains every token of the phrase
// (author names such as "Peter Buneman" in the paper's Example 2 behave as
// one keyword).
type Keyword struct {
	// Raw is the keyword as the user typed it.
	Raw string
	// Tokens is the normalized token list (lower-cased, stemmed).
	Tokens []string
}

// IsPhrase reports whether the keyword spans multiple tokens.
func (k Keyword) IsPhrase() bool { return len(k.Tokens) > 1 }

// Query is a GKS keyword query Q = {k1..kn}.
type Query struct {
	Keywords []Keyword
}

// Len returns |Q|.
func (q Query) Len() int { return len(q.Keywords) }

// String renders the query with phrases quoted; ParseQuery(q.String())
// yields an equivalent query.
func (q Query) String() string {
	parts := make([]string, len(q.Keywords))
	for i, k := range q.Keywords {
		if strings.ContainsAny(k.Raw, " \t\n\r") || len(k.Tokens) > 1 {
			parts[i] = `"` + k.Raw + `"`
		} else {
			parts[i] = k.Raw
		}
	}
	return strings.Join(parts, " ")
}

// NewQuery builds a query from pre-split terms; a term containing spaces
// becomes a phrase keyword.
func NewQuery(terms ...string) Query {
	var q Query
	for _, t := range terms {
		kw := makeKeyword(t)
		if len(kw.Tokens) > 0 {
			q.Keywords = append(q.Keywords, kw)
		}
	}
	return q
}

// ParseQuery parses a query string with optional double-quoted phrases,
// e.g. `"Peter Buneman" "Wenfei Fan" 2001`.
func ParseQuery(input string) Query {
	var q Query
	i := 0
	for i < len(input) {
		switch {
		case input[i] == ' ' || input[i] == '\t' || input[i] == '\n':
			i++
		case input[i] == '"':
			j := strings.IndexByte(input[i+1:], '"')
			if j < 0 {
				// Unterminated quote: treat the rest as one phrase.
				j = len(input) - i - 1
			}
			if kw := makeKeyword(input[i+1 : i+1+j]); len(kw.Tokens) > 0 {
				q.Keywords = append(q.Keywords, kw)
			}
			i += j + 2
		default:
			j := i
			for j < len(input) && input[j] != ' ' && input[j] != '\t' && input[j] != '\n' && input[j] != '"' {
				j++
			}
			if kw := makeKeyword(input[i:j]); len(kw.Tokens) > 0 {
				q.Keywords = append(q.Keywords, kw)
			}
			i = j
		}
	}
	return q
}

func makeKeyword(raw string) Keyword {
	raw = strings.TrimSpace(raw)
	// Raw is the display form; embedded quotes would make the rendered
	// query unparseable, so drop them.
	raw = strings.ReplaceAll(raw, `"`, "")
	toks := textproc.Tokenize(raw)
	norm := make([]string, 0, len(toks))
	for _, t := range toks {
		// Multi-token phrases drop stop words, mirroring the indexing
		// pipeline ("David A. Patterson" must match the indexed tokens
		// {david, patterson}). A single-token keyword is kept even if it
		// is a stop word so an explicit query gets a well-defined (empty)
		// lookup instead of silently changing meaning.
		if len(toks) > 1 && textproc.IsStopword(t) {
			continue
		}
		norm = append(norm, textproc.Stem(t))
	}
	if len(norm) == 0 && len(toks) > 0 {
		norm = append(norm, textproc.Stem(toks[0]))
	}
	return Keyword{Raw: raw, Tokens: norm}
}

// TokenSet returns the set of normalized tokens over all keywords; DI
// discovery uses it to exclude query keywords from insights (§6.2).
func (q Query) TokenSet() map[string]bool {
	set := make(map[string]bool)
	for _, k := range q.Keywords {
		for _, t := range k.Tokens {
			set[t] = true
		}
	}
	return set
}

// SearchRequest is one GKS query as a searcher takes it: the keyword query
// Q at threshold s (§3), or, with BestEffort, at the largest s for which
// R_Q(s) is non-empty (S is then ignored). TopK > 0 asks for only the k
// best results, the k-prefix of the whole response; 0 asks for all of
// them. Either way Response.Total counts the whole response.
type SearchRequest struct {
	Query      Query
	S          int
	TopK       int
	BestEffort bool
}

// Validate reports structural problems with the query.
func (q Query) Validate() error {
	if len(q.Keywords) == 0 {
		return fmt.Errorf("core: empty query")
	}
	if len(q.Keywords) > 64 {
		return fmt.Errorf("core: query has %d keywords; at most 64 supported", len(q.Keywords))
	}
	return nil
}
