// Package textproc implements the text pipeline of the GKS indexing engine
// (Agarwal et al., EDBT 2016, §2.4): tokenization, stop-word removal and
// stemming. The paper specifies that "a separate index entry is created for
// each of the keywords after stop words removal and stemming"; this package
// provides exactly that normalization, shared by the indexer and the query
// processor so query keywords and indexed keywords agree.
package textproc

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lower-cased word tokens. Letters and digits form
// tokens; everything else separates tokens. Tokens keep internal digits
// ("2001", "vldb09") so year- and id-like keywords remain searchable.
func Tokenize(s string) []string {
	var tokens []string
	forEachToken(s, func(raw string) { tokens = append(tokens, strings.ToLower(raw)) })
	return tokens
}

// forEachToken calls f with each token of s as it appears in s, before
// lower-casing.
func forEachToken(s string, f func(raw string)) {
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			f(s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		f(s[start:])
	}
}

// stopwords is a compact English stop-word list. The paper does not publish
// its list; this one covers the classic closed-class words that would
// otherwise dominate the inverted index.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "have": true, "he": true, "her": true, "his": true,
	"i": true, "if": true, "in": true, "into": true, "is": true, "it": true, "its": true,
	"no": true, "not": true, "of": true, "on": true, "or": true, "our": true,
	"she": true, "so": true, "such": true, "that": true, "the": true,
	"their": true, "then": true, "there": true, "these": true, "they": true,
	"this": true, "to": true, "was": true, "we": true, "were": true,
	"which": true, "will": true, "with": true, "you": true,
}

// IsStopword reports whether the lower-cased token is a stop word.
func IsStopword(tok string) bool { return stopwords[tok] }

// Normalize runs the full pipeline on raw text: tokenize, drop stop words,
// stem. The result is the list of index keywords for the text, in order of
// appearance (duplicates preserved; the indexer dedups per node).
func Normalize(s string) []string {
	toks := Tokenize(s)
	out := toks[:0]
	for _, t := range toks {
		if IsStopword(t) {
			continue
		}
		out = append(out, Stem(t))
	}
	return out
}

// NormalizeKeyword normalizes a single query keyword (one token). It
// lower-cases and stems but does not drop stop words, so that a user
// explicitly searching for a stop word still gets a well-defined (empty)
// posting lookup rather than a silently altered query.
func NormalizeKeyword(s string) string {
	toks := Tokenize(s)
	if len(toks) == 0 {
		return ""
	}
	return Stem(toks[0])
}

// Memo is Normalize and NormalizeKeyword with each distinct token
// lower-cased, stop-word tested and stemmed once. An index build owns one
// for its lifetime: a corpus repeats its vocabulary, so the build stems a
// few thousand words instead of every occurrence. The query path keeps
// calling the unmemoised functions, so user input cannot grow a map. A
// Memo is not safe for concurrent use.
type Memo struct {
	words map[string]memoWord // raw token as cut from the text
}

type memoWord struct {
	stem string
	stop bool
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{words: make(map[string]memoWord)} }

// word returns raw's stem and stop-word flag, computing them on first use.
func (m *Memo) word(raw string) memoWord {
	if w, ok := m.words[raw]; ok {
		return w
	}
	lower := strings.ToLower(raw)
	w := memoWord{stem: Stem(lower), stop: IsStopword(lower)}
	// Clone the key: raw points into the caller's text, which the memo
	// must not keep alive.
	m.words[strings.Clone(raw)] = w
	return w
}

// Normalize is Normalize(s).
func (m *Memo) Normalize(s string) []string {
	var out []string
	forEachToken(s, func(raw string) {
		if w := m.word(raw); !w.stop {
			out = append(out, w.stem)
		}
	})
	return out
}

// NormalizeKeyword is NormalizeKeyword(s).
func (m *Memo) NormalizeKeyword(s string) string {
	key, first := "", true
	forEachToken(s, func(raw string) {
		if first {
			key, first = m.word(raw).stem, false
		}
	})
	return key
}
