// Hybrid reproduces the paper's §7.6 experiment as a runnable program:
// DBLP and SIGMOD Record are merged under a common root (with two extra
// connecting nodes deepening the SIGMOD side), and a single query whose
// keyword pairs target two *different* entity types returns exactly the
// right nodes of both types — with ranking driven by keyword packing, not
// absolute depth.
package main

import (
	"context"
	"fmt"
	"log"

	gks "repro"
	"repro/internal/datagen"
)

func main() {
	dblp := datagen.PaperDBLP(1)
	sigmod := datagen.PaperSigmod(1)

	// Merge under a common root; two connecting nodes above SIGMOD Record
	// increase its relative depth (§7.6).
	merged := gks.BuildDocument("hybrid.xml", gks.E("repository",
		dblp.Root,
		gks.E("archive", gks.E("collection", sigmod.Root)),
	))
	sys, err := gks.IndexDocuments(merged)
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("merged repository: %d elements, %d entity nodes\n\n", st.ElementNodes, st.EntityNodes)

	// First two authors co-occur only in DBLP <inproceedings>; last two
	// only in SIGMOD <article> nodes.
	terms := datagen.HybridAuthors()
	query := fmt.Sprintf("%q %q %q %q", terms[0], terms[1], terms[2], terms[3])
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery(query), S: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s (s=2): %d results (paper: 8 = 3 inproceedings + 5 articles)\n\n",
		resp.Query, len(resp.Results))

	counts := map[string]int{}
	for i, r := range resp.Results {
		counts[r.Label]++
		depth := len(r.ID.Path) - 1
		fmt.Printf("%d. <%s> %s depth=%d rank=%.3f authors=%v\n",
			i+1, r.Label, r.ID, depth, r.Rank, resp.KeywordsOf(r))
	}
	fmt.Printf("\nby type: %v\n", counts)

	// The deeper 2-author <article> nodes outrank the shallower but
	// co-author-crowded <inproceedings> — "entity nodes are ranked based
	// on only the number of query keywords present in their sub-tree and
	// the distribution of these keywords, and not according to their
	// absolute depth" (§7.6).
	if resp.Results[0].Label == "article" {
		fmt.Println("deeper <article> nodes rank first: ranking is depth-independent ✓")
	}

	// The result-type inference sees both targets.
	fmt.Println("\ninferred result types:")
	for _, ts := range sys.InferResultTypes(query, 4) {
		fmt.Printf("  %-16s score=%.2f\n", ts.Label, ts.Score)
	}
}
