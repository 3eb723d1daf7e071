package gks_test

import (
	"context"
	"fmt"
	"log"

	gks "repro"
)

const exampleXML = `<Dept>
  <Dept_Name>CS</Dept_Name>
  <Area>
    <Name>Databases</Name>
    <Courses>
      <Course>
        <Name>Data Mining</Name>
        <Students>
          <Student>Karen</Student>
          <Student>Mike</Student>
          <Student>John</Student>
        </Students>
      </Course>
      <Course>
        <Name>Algorithms</Name>
        <Students>
          <Student>Karen</Student>
          <Student>Julie</Student>
        </Students>
      </Course>
    </Courses>
  </Area>
</Dept>`

func exampleSystem() *gks.System {
	doc, err := gks.ParseDocumentString(exampleXML, "university.xml")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

// The paper's running example: an "imperfect" keyword query over the
// university document of Figure 2(a) answered by LCE nodes.
func ExampleSystem_Search() {
	sys := exampleSystem()
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery("karen mike john"), S: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range resp.Results {
		fmt.Printf("<%s> %s keywords=%d\n", r.Label, r.ID, r.KeywordCount)
	}
	// Output:
	// <Course> 0.0.1.1.0 keywords=3
}

// DI discovery exposes the context of a response — here, the names of the
// courses the matching students are enrolled in.
func ExampleSystem_Insights() {
	sys := exampleSystem()
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery("karen"), S: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range sys.Insights(resp, 2) {
		fmt.Println(in)
	}
	// The Algorithms course ranks higher for {karen} — it packs the
	// keyword more tightly (2 students vs 3) — so its context leads.
	// Output:
	// <Course: Name: Algorithms>
	// <Course: Students: Student: Julie>
}

// The SLCA baseline answers the same intent with the bare <Students> node,
// stripped of the course context GKS preserves.
func ExampleSystem_SLCA() {
	sys := exampleSystem()
	fmt.Println(sys.SLCA(gks.NewQuery("karen", "mike", "john")))
	// Output:
	// [0.0.1.1.0.1]
}

// XPath is the structured query a user would otherwise have to write.
func ExampleSystem_XPath() {
	sys := exampleSystem()
	nodes, err := sys.XPath(`//Course[Name="Data Mining"]/Students/Student`)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range nodes {
		fmt.Println(n.Value())
	}
	// Output:
	// Karen
	// Mike
	// John
}

// Best-effort search honors as much of the query as the data supports.
func ExampleSystem_Search_bestEffort() {
	sys := exampleSystem()
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery("karen mike john harry"), BestEffort: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("s=%d results=%d\n", resp.S, len(resp.Results))
	// Output:
	// s=3 results=1
}

// Refinements split an over-constrained query into the sub-queries the
// data actually supports (§6.1 of the paper).
func ExampleRefinements() {
	sys := exampleSystem()
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery("mike julie"), S: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range gks.Refinements(resp, 2) {
		fmt.Println(q)
	}
	// Output:
	// julie
	// mike
}
