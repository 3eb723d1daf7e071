// Refinement reproduces the §7.4 walk-through of the paper: a user starts
// with QD1 = {"Dimitrios Georgakopoulos", "Joe D. Morrison"} (one joint
// article), the DI suggests co-author Marek Rusinkiewicz, and the refined
// query surfaces ten joint articles — GKS guiding navigation of data the
// user does not know.
package main

import (
	"context"
	"fmt"
	"log"

	gks "repro"
	"repro/internal/datagen"
)

func main() {
	doc := datagen.PaperDBLP(1)
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		log.Fatal(err)
	}

	georgakopoulos, morrison, _ := datagen.RefinementAuthors()
	original := gks.NewQuery(georgakopoulos, morrison)
	ctx := context.Background()
	resp, err := sys.Search(ctx, gks.SearchRequest{Query: original, S: 1})
	if err != nil {
		log.Fatal(err)
	}
	joint := 0
	for _, r := range resp.Results {
		if r.KeywordCount == 2 {
			joint++
		}
	}
	fmt.Printf("original query {%s}: %d articles, %d joint (paper: 30 / 1)\n",
		original, len(resp.Results), joint)

	// DI over the response: the suggested co-author appears among the top
	// insights.
	insights := sys.Insights(resp, 5)
	fmt.Println("top insights:")
	for i, in := range insights {
		fmt.Printf("  %d. %s (weight %.2f)\n", i+1, in, in.Weight)
	}

	// §7.4: augment the query with the first author-type insight.
	var authorInsights []gks.Insight
	for _, in := range insights {
		if last := in.Path[len(in.Path)-1]; last == "author" {
			authorInsights = append(authorInsights, in)
		}
	}
	if len(authorInsights) == 0 {
		log.Fatal("no author insight discovered")
	}
	refinedBase := gks.NewQuery(georgakopoulos)
	refined := gks.Augmentations(refinedBase, authorInsights, 1)[0]
	refResp, err := sys.Search(ctx, gks.SearchRequest{Query: refined, S: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrefined query {%s}: %d joint articles (paper: 10)\n", refined, len(refResp.Results))
	for i, r := range refResp.Results {
		if i == 3 {
			fmt.Printf("  ... %d more\n", len(refResp.Results)-3)
			break
		}
		chunk, err := sys.Chunk(r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s rank=%.3f\n%s", r.ID, r.Rank, indent(chunk))
	}
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
