package index

import (
	"testing"

	"repro/internal/xmltree"
)

// Hooks for the external test package (index_test), whose tests import
// packages that import this one.

// PackedRepos is packedRepos.
var PackedRepos = packedRepos

// AssertRecategorized runs the accessor oracle on ix against the builder's
// flat table for repo with cats installed on every row.
func AssertRecategorized(t *testing.T, label string, repo *xmltree.Repository, cats []Category, ix *Index) {
	t.Helper()
	want := flatBuild(t, repo)
	for i := range want.nodes {
		want.nodes[i].Cat = cats[i]
	}
	assertAccessorsMatch(t, label, want, ix)
}
