package index

import (
	"testing"

	"repro/internal/xmltree"
)

// Hooks for the external test package (index_test), whose tests import
// packages that import this one.

// PackedRepos is packedRepos.
var PackedRepos = packedRepos

// AssertRecategorized runs the accessor oracle on ix against the reference
// table of repo with cats installed on every row.
func AssertRecategorized(t *testing.T, label string, repo *xmltree.Repository, cats []Category, ix *Index) {
	t.Helper()
	want := flatBuild(t, repo)
	for i := range want.nodes {
		want.nodes[i].Cat = cats[i]
	}
	assertAccessorsMatch(t, label, want, ix)
}

// Tombstoned reports whether the index carries a tombstone mask (i.e. has
// live deletes that a save would compact away).
func (ix *Index) Tombstoned() bool { return ix.tomb != nil }
