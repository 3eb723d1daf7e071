package index_test

import (
	"testing"

	"repro/internal/index"
	"repro/internal/schema"
)

// TestAccessorOracleAfterSchemaApply: schema.Apply re-packs the node table
// with the schema-level categories, and every accessor at every ordinal
// must then equal the builder's flat row carrying them.
func TestAccessorOracleAfterSchemaApply(t *testing.T) {
	changed := 0
	for name, repo := range index.PackedRepos() {
		ix, err := index.Build(repo, index.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cats := schema.Infer(ix).Categorize(ix)
		changed += schema.Apply(ix, cats)
		index.AssertRecategorized(t, name, repo, cats, ix)
	}
	if changed == 0 {
		t.Fatal("no corpus changed a category: the re-pack went unexercised")
	}
}
