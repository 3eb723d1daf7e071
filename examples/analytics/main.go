// Analytics explores a geographic database (the Mondial analog) with the
// features beyond plain search: best-effort thresholding, top-k retrieval,
// schema inspection, schema-aware categorization and recursive DI — the
// "analytics over raw XML data" direction the paper's conclusion points
// at.
package main

import (
	"context"
	"fmt"
	"log"

	gks "repro"
	"repro/internal/datagen"
)

func main() {
	doc := datagen.Mondial(datagen.Config{Seed: 42, Scale: 1})
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	st := sys.Stats()
	fmt.Printf("indexed %d elements (%d entity nodes)\n\n", st.ElementNodes, st.EntityNodes)

	// The inferred schema: which elements repeat where.
	fmt.Println("inferred schema (repeating edges):")
	for _, e := range sys.Schema() {
		if e.Repeats {
			fmt.Printf("  %s -> %s*\n", e.Parent, e.Child)
		}
	}

	// Best-effort search: ask for a lot, get the best the data supports.
	query := "Muslim Buddhism Christianity Hinduism Chinese Thai"
	resp, err := sys.Search(ctx, gks.SearchRequest{Query: gks.ParseQuery(query), BestEffort: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest-effort for {%s}: s=%d, %d countries\n", query, resp.S, len(resp.Results))
	for i, r := range resp.Results {
		if i == 3 {
			break
		}
		fmt.Printf("  %d. <%s> %s rank=%.3f keywords=%v\n",
			i+1, r.Label, r.ID, r.Rank, resp.KeywordsOf(r))
	}

	// Top-k: just the three most relevant nodes for a broad query. At
	// instance level, countries whose religions happen not to repeat are
	// connecting nodes, so bare <religion> leaves can surface...
	topK := gks.SearchRequest{Query: gks.ParseQuery("Muslim Catholic"), S: 1, TopK: 3}
	topk, err := sys.Search(ctx, topK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-3 for {Muslim Catholic}, instance-level categorization:\n")
	for i, r := range topk.Results {
		fmt.Printf("  %d. <%s> %s rank=%.3f\n", i+1, r.Label, r.ID, r.Rank)
	}

	// ...which is exactly what schema-aware categorization (the paper's
	// §2.2 future work) fixes: <religion> repeats somewhere, so every
	// country is an entity and matches lift to it.
	changed := sys.ApplySchemaCategorization()
	fmt.Printf("\nschema-aware categorization changed %d node(s) (entity nodes now %d)\n",
		changed, sys.Stats().EntityNodes)
	topk, err = sys.Search(ctx, topK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 after schema-aware categorization:")
	for i, r := range topk.Results {
		fmt.Printf("  %d. <%s> %s rank=%.3f\n", i+1, r.Label, r.ID, r.Rank)
	}

	// Recursive DI: let the data suggest what to look at next.
	rounds, err := gks.InsightsRecursive(ctx, sys, gks.NewQuery("Laos"), 1, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, round := range rounds {
		fmt.Printf("\nDI round %d (query {%s}):\n", i, round.Query)
		for _, in := range round.Insights {
			fmt.Printf("  %s\n", in)
		}
	}
}
