// Quickstart: index a small XML catalog, run a GKS search, and discover
// Deeper Analytical Insights — the one-minute tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	gks "repro"
)

const catalog = `<?xml version="1.0"?>
<catalog>
  <product>
    <name>Trail Runner</name>
    <brand>Vertex</brand>
    <reviews>
      <review>lightweight and durable</review>
      <review>great grip on wet rock</review>
    </reviews>
  </product>
  <product>
    <name>Peak Boot</name>
    <brand>Vertex</brand>
    <reviews>
      <review>durable leather, heavy</review>
      <review>kept my feet dry all winter</review>
    </reviews>
  </product>
  <product>
    <name>River Sandal</name>
    <brand>Cascade</brand>
    <reviews>
      <review>lightweight, dries fast</review>
      <review>straps wear out</review>
    </reviews>
  </product>
</catalog>`

func main() {
	doc, err := gks.ParseDocumentString(catalog, "catalog.xml")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		log.Fatal(err)
	}

	// GKS relaxes AND-semantics: with s=1 every product matching any
	// keyword is returned, ranked by how many keywords it packs and how
	// tightly. An LCA-based system would return the catalog root here,
	// because no single product is both lightweight AND durable... except
	// one, which GKS ranks first.
	q := gks.NewQuery("lightweight", "durable")
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: q, S: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q (s=%d) -> %d results\n", resp.Query.String(), resp.S, len(resp.Results))
	for i, r := range resp.Results {
		fmt.Printf("%d. <%s> %s rank=%.3f keywords=%v\n",
			i+1, r.Label, r.ID, r.Rank, resp.KeywordsOf(r))
		chunk, err := sys.Chunk(r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(indent(chunk, "   "))
	}

	// DI: the most relevant attribute values in the response, with their
	// schema paths.
	fmt.Println("deeper analytical insights:")
	for _, in := range sys.Insights(resp, 3) {
		fmt.Printf("  %s (weight %.2f)\n", in, in.Weight)
	}

	// Baselines for comparison.
	fmt.Printf("SLCA baseline returns: %v\n", sys.SLCA(q))
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
