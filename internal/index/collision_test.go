package index

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// collisionXML is a document where element names reappear as value tokens
// of the same node: <author> whose text says "author", and an attribute
// whose synthesized child label equals a token of its value. Both build
// paths used to post the shared ordinal twice — once for the label, once
// for the value token — planting a duplicate in a strictly-increasing
// posting list that the save-path codec (postings.Encode) rejects by
// panic. The collision must dedup at build time.
const collisionXML = `<?xml version="1.0"?>
<bib>
  <article type="journal Type">
    <author>The Author Writes</author>
    <title>title of the title</title>
  </article>
  <author>author</author>
</bib>`

// assertStrictlyIncreasing fails on any duplicate or out-of-order ordinal.
func assertStrictlyIncreasing(t *testing.T, ix *Index) {
	t.Helper()
	for kw, list := range ix.Postings {
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				t.Errorf("keyword %q: ordinal %d after %d not strictly increasing (%v)", kw, list[i], list[i-1], list)
			}
		}
	}
}

func TestLabelValueCollisionDedup(t *testing.T) {
	doc, err := xmltree.ParseString(collisionXML, 0, "collision.xml")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertStrictlyIncreasing(t, tree)

	stream, err := buildStream(strings.NewReader(collisionXML), 0, "collision.xml", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertStrictlyIncreasing(t, stream)

	// Both builders must agree keyword for keyword — the collision is not
	// a point where the tree and streaming paths may diverge.
	if len(tree.Postings) != len(stream.Postings) {
		t.Fatalf("builders disagree: %d vs %d keywords", len(tree.Postings), len(stream.Postings))
	}
	for kw, want := range tree.Postings {
		got := stream.Postings[kw]
		if len(got) != len(want) {
			t.Errorf("keyword %q: tree %v vs stream %v", kw, want, got)
		}
	}

	// The collided keyword posts each node once.
	if list := tree.Postings["author"]; len(list) != 2 {
		t.Fatalf("author postings = %v, want one entry per <author> node", list)
	}

	// Appending a colliding document onto an existing index (the live
	// ingestion path) must stay save-clean too: Save uses the strict codec
	// and would panic on a duplicate.
	base := buildFig2a(t)
	merged, err := Append(base, doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertStrictlyIncreasing(t, merged)
	var sink strings.Builder
	if err := merged.SaveSnapshot(&sink); err != nil {
		t.Fatal(err)
	}
}
