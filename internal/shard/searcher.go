package shard

import (
	"context"

	"repro/internal/core"
	"repro/internal/di"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// Searcher is the serving surface shared by a single-index gks.System and a
// shard Set: one query entry point, the analyses and introspection gksd
// serves, and copy-on-write mutation. A mutation returns the successor as a
// Searcher, which Go can only spell with the interface declared in a
// package every implementation can import; this is the lowest package
// that already imports every type in the method set, and the root package
// re-exports it as gks.Searcher.
type Searcher interface {
	// Search answers one request. It honors ctx cooperatively: every
	// engine stage polls it, so an expired request frees its CPU.
	Search(ctx context.Context, req core.SearchRequest) (*core.Response, error)
	// Explain runs q at threshold s while recording pipeline diagnostics;
	// the embedded response equals Search's.
	Explain(ctx context.Context, q core.Query, s int) (*core.Explanation, error)
	// Insights discovers the top-m Deeper Analytical Insights of a
	// response this searcher returned (§2.3, §6.2); m <= 0 returns all.
	Insights(resp *core.Response, m int) []di.Insight
	SLCA(q core.Query) []string
	ELCA(q core.Query) []string
	InferResultTypes(query string, topK int) []di.TypeScore
	Suggest(keyword string, maxDist, topK int) []textproc.Suggestion
	HasMatches(keyword string) bool
	Schema() []schema.Edge
	ApplySchemaCategorization() int
	Stats() index.Stats
	ValidateIndex() error

	// Upsert returns a successor holding doc, replacing any live document
	// of the same name (replaced reports whether one existed). The
	// receiver is unchanged. A name index.ValidateDocName rejects fails
	// with index.ErrInvalidDocName.
	Upsert(doc *xmltree.Document) (next Searcher, replaced bool, err error)
	// Remove returns a successor without the named document. It fails
	// with index.ErrNotFound when the name is not held and with
	// index.ErrLastDocument when the delete would leave nothing.
	Remove(name string) (Searcher, error)
	// DocHolds returns a probe reporting whether the live document named
	// name holds a normalized keyword (a Keyword.Tokens element: a text
	// token or an element name); a name not held yields a probe that is
	// always false. Documents are separate trees, categories and ranks are
	// computed inside a node's own subtree and a document root is never
	// returned, so a one-document mutation can change the answer to a
	// query only if the document, before or after, holds one of the
	// query's tokens: the response cache evicts by this probe.
	DocHolds(name string) func(token string) bool
	// PackDebt is the fraction of the node table's rows that are
	// tombstoned, in [0, 1].
	PackDebt() float64
	// Repacked returns a successor whose pack debt is paid, answering
	// every query as the receiver does.
	Repacked() Searcher
}

var _ Searcher = (*Set)(nil)
