// University walks through the paper's running example (Figure 2(a),
// Examples 3–5 and §2.3 of Agarwal et al., EDBT 2016): the node
// categorization model, an "imperfect" query answered by LCE nodes, the
// potential-flow ranking, and DI discovery.
package main

import (
	"context"
	"fmt"
	"log"

	gks "repro"
)

func main() {
	// Figure 2(a): a department with areas, courses and student rosters.
	doc := gks.BuildDocument("university.xml", gks.E("Dept",
		gks.ET("Dept_Name", "CS"),
		gks.E("Area",
			gks.ET("Name", "Databases"),
			gks.E("Courses",
				course("Data Mining", "Karen", "Mike", "John"),
				course("Algorithms", "Karen", "Julie", "John"),
				course("AI", "Karen", "Mike", "Serena", "Peter"),
			),
		),
		gks.E("Area",
			gks.ET("Name", "Theory"),
			gks.E("Courses",
				course("Logic", "Alice", "Bob"),
			),
		),
	))
	sys, err := gks.IndexDocuments(doc)
	if err != nil {
		log.Fatal(err)
	}

	// §2.2 node categorization: Dept and Course are entity nodes, Student
	// is repeating, Name is an attribute, Courses/Students connect.
	fmt.Println("node categorization (Defs 2.1.1-2.1.4):")
	for _, id := range []string{"0.0", "0.0.1", "0.0.1.1", "0.0.1.1.0", "0.0.1.1.0.0", "0.0.1.1.0.1", "0.0.1.1.0.1.0"} {
		cat, _ := sys.CategoryOf(id)
		fmt.Printf("  %-16s %v\n", id, cat)
	}

	// Example 3: the "imperfect" query Q4 with s=2. LCA systems need the
	// user to know which students share courses; GKS returns the three
	// courses as LCE nodes, each exposing its Name attribute as context.
	ctx := context.Background()
	q4 := gks.ParseQuery("student karen mike john harry")
	resp, err := sys.Search(ctx, gks.SearchRequest{Query: q4, S: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nExample 3 - Q4 = {student, karen, mike, john, harry}, s=2: %d LCE nodes\n", len(resp.Results))
	for i, r := range resp.Results {
		fmt.Printf("%d. <%s> %s rank=%.3f keywords=%v\n", i+1, r.Label, r.ID, r.Rank, resp.KeywordsOf(r))
	}

	// §2.3: the DI exposes <Course: Name: Data Mining> — the context the
	// "perfect" SLCA answer (the bare <Students> node) never reveals.
	fmt.Println("\nDI (Def 2.3.1):")
	for _, in := range sys.Insights(resp, 3) {
		fmt.Printf("  %s\n", in)
	}

	// §2.3 perfect query: GKS returns the Course entity; SLCA returns the
	// context-free <Students> node.
	q5 := gks.NewQuery("student", "karen", "mike", "john")
	perfect, err := sys.Search(ctx, gks.SearchRequest{Query: q5, S: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperfect query Q5, s=|Q|: GKS -> %s <%s>, SLCA -> %v\n",
		perfect.Results[0].ID, perfect.Results[0].Label, sys.SLCA(q5))

	// §6.1: refinement suggestions split an over-constrained query into
	// the sub-queries the data actually supports.
	mixed, err := sys.Search(ctx, gks.SearchRequest{Query: gks.ParseQuery("karen julie serena"), S: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrefinements for {karen, julie, serena}:")
	for _, ref := range gks.Refinements(mixed, 3) {
		fmt.Printf("  {%s}\n", ref)
	}
}

func course(name string, students ...string) *gks.Node {
	st := gks.E("Students")
	for _, s := range students {
		st.Append(gks.ET("Student", s))
	}
	return gks.E("Course", gks.ET("Name", name), st)
}
