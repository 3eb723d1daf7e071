package xmltree

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary byte strings to the XML parser: it must return
// a well-formed tree or an error, never panic, and accepted documents must
// survive a serialize→parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a><b>text</b></a>`,
		`<a k="v">mixed <b/> content</a>`,
		`<a>&lt;escaped&gt;</a>`,
		`not xml at all`,
		`<a><b></a></b>`,
		`<?xml version="1.0"?><root/>`,
		`<a xmlns:x="u"><x:b/></a>`,
		`<a>` + "\x00" + `</a>`,
		`<a><![CDATA[cdata text]]></a>`,
		// A chain of depth 2 000, whose Dewey paths total two million
		// components.
		strings.Repeat("<a>", 2000) + "x" + strings.Repeat("</a>", 2000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src, 0, "fuzz.xml")
		if err != nil {
			return
		}
		if doc.Root == nil || !doc.Root.IsElement() {
			t.Fatal("accepted document without element root")
		}
		// Dewey IDs must be assigned consistently.
		Walk(doc.Root, func(n *Node) bool {
			if n.ID.Doc < 0 || len(n.ID.Path) == 0 || slices.ContainsFunc(n.ID.Path, func(c int32) bool { return c < 0 }) {
				t.Fatalf("invalid Dewey ID on %q", n.Label)
			}
			for i, c := range n.Children {
				if c.Parent != n {
					t.Fatal("broken parent pointer")
				}
				want := n.ID.Child(int32(i))
				if c.ID.String() != want.String() {
					t.Fatalf("child ID %s, want %s", c.ID, want)
				}
			}
			return true
		})
	})
}

// FuzzDeweyRoundTrip checks the tree against FindByID for every node.
func FuzzFindByID(f *testing.F) {
	f.Add(`<a><b><c>x</c></b><d/></a>`)
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src, 0, "fuzz.xml")
		if err != nil {
			return
		}
		Walk(doc.Root, func(n *Node) bool {
			if got := doc.FindByID(n.ID); got != n {
				t.Fatalf("FindByID(%s) mismatch", n.ID)
			}
			return true
		})
	})
}
