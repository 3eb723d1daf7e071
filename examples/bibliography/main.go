// Bibliography reproduces the paper's Example 2 interactively: the QD2
// query over a DBLP-shaped bibliography, where one "wrong" author name
// would make any LCA-based system return the whole root. The dataset is
// the synthetic DBLP analog (internal/datagen) carrying the paper's
// planted ground truth; searching, ranking, DI and baselines all go
// through the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	gks "repro"
	"repro/internal/datagen"
)

func main() {
	// Generate the DBLP analog (also available on disk via cmd/gksgen).
	doc := datagen.PaperDBLP(1)
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("indexed bibliography: %d elements, %d entity nodes, %d keywords\n\n",
		st.ElementNodes, st.EntityNodes, st.DistinctKeywords)

	// Example 2: three authors share five joint articles; the fourth never
	// co-authored with any of them.
	query := `"Peter Buneman" "Wenfei Fan" "Scott Weinstein" "Prithviraj Banerjee"`

	// The LCA baselines collapse to the document root — "not a meaningful
	// response as it is available to the user even in the absence of any
	// query" (§1).
	q := gks.ParseQuery(query)
	ctx := context.Background()
	fmt.Printf("SLCA answer for the query: %v (the DBLP root)\n\n", sys.SLCA(q))

	// GKS with s=1 returns every article by any of the authors...
	all, err := sys.Search(ctx, gks.SearchRequest{Query: q, S: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GKS s=1: %d articles (paper: 234)\n", len(all.Results))

	// ...with the joint articles ranked on top.
	fmt.Println("top 5 of the ranked response:")
	for i, r := range all.Results[:5] {
		fmt.Printf("%d. %s rank=%.3f authors=%v\n", i+1, r.ID, r.Rank, all.KeywordsOf(r))
	}

	// Tightening s to 2 keeps only articles by at least two query authors.
	pairs, err := sys.Search(ctx, gks.SearchRequest{Query: q, S: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGKS s=2: %d articles (paper: 10)\n", len(pairs.Results))

	// DI: the most relevant venues, years and co-authors in the context of
	// the query.
	fmt.Println("\ndeeper analytical insights (s=1):")
	for _, in := range sys.Insights(all, 5) {
		fmt.Printf("  %s (weight %.2f over %d articles)\n", in, in.Weight, in.Count)
	}

	// Refinement: the keyword subsets the data actually supports.
	fmt.Println("\nrefinement suggestions:")
	for _, ref := range gks.Refinements(pairs, 3) {
		fmt.Printf("  {%s}\n", ref)
	}

	// Recursive DI (§2.3): feed the top insights back as a query.
	rounds, err := gks.InsightsRecursive(ctx, sys, q, 1, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	if len(rounds) > 1 {
		vals := make([]string, 0, len(rounds[0].Insights))
		for _, in := range rounds[0].Insights {
			vals = append(vals, in.Value)
		}
		fmt.Printf("\nrecursive DI round 1 query: {%s} -> %d results, %d new insights\n",
			strings.Join(vals, ", "), len(rounds[1].Response.Results), len(rounds[1].Insights))
	}
}
