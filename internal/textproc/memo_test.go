package textproc_test

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// TestMemoMatchesNormalize: over every label and text value of the four
// corpus analogs, one memo used across all of them (as a build uses it)
// answers exactly what the unmemoised functions answer, on first sight of
// a token and on every repeat.
func TestMemoMatchesNormalize(t *testing.T) {
	cfg := datagen.Config{Seed: 1, Scale: 1}
	docs := []*xmltree.Document{
		datagen.NASA(cfg), datagen.SwissProt(cfg), datagen.PaperDBLP(1), datagen.PaperSigmod(1),
	}
	m := textproc.NewMemo()
	checked := 0
	check := func(s string) {
		if got, want := m.Normalize(s), textproc.Normalize(s); !slices.Equal(got, want) {
			t.Fatalf("Memo.Normalize(%q) = %q, want %q", s, got, want)
		}
		if got, want := m.NormalizeKeyword(s), textproc.NormalizeKeyword(s); got != want {
			t.Fatalf("Memo.NormalizeKeyword(%q) = %q, want %q", s, got, want)
		}
		checked++
	}
	for _, s := range []string{"", " ", "The", "THE the", "Has has", "Ünïcode Straße 2001", "vldb09 x", "a-b_c"} {
		check(s)
	}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.IsElement() {
			check(n.Label)
			check(n.Value())
		} else {
			check(n.Text)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, d := range docs {
			walk(d.Root)
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d strings checked", checked)
	}
}
