package index

import (
	"sort"
	"testing"
)

func TestTopKeywords(t *testing.T) {
	ix := buildFig2a(t)
	top := ix.TopKeywords(3)
	if len(top) != 3 {
		t.Fatalf("top = %d entries", len(top))
	}
	// "student" (16 tags) dominates, then "cours" (6 tags).
	if top[0].Keyword != "student" || top[0].Count != 16 {
		t.Errorf("top[0] = %+v", top[0])
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Count < top[i].Count {
			t.Error("not sorted by count")
		}
	}
	all := ix.TopKeywords(0)
	if len(all) != ix.Stats.DistinctKeywords {
		t.Errorf("all = %d, want %d", len(all), ix.Stats.DistinctKeywords)
	}
}

func TestLabelHistogram(t *testing.T) {
	ix := buildFig2a(t)
	hist := ix.LabelHistogram()
	byLabel := map[string]LabelCount{}
	total := 0
	for _, lc := range hist {
		byLabel[lc.Label] = lc
		total += lc.Count
	}
	if total != ix.Stats.ElementNodes {
		t.Errorf("histogram total = %d, want %d", total, ix.Stats.ElementNodes)
	}
	if st := byLabel["Student"]; st.Count != 12 || st.PerCategory[1] != 12 {
		t.Errorf("Student = %+v, want 12 repeating", st)
	}
	if c := byLabel["Course"]; c.Count != 4 || c.PerCategory[2] != 4 {
		t.Errorf("Course = %+v, want 4 entities", c)
	}
	if !sort.SliceIsSorted(hist, func(i, j int) bool {
		if hist[i].Count != hist[j].Count {
			return hist[i].Count > hist[j].Count
		}
		return hist[i].Label < hist[j].Label
	}) {
		t.Error("histogram not sorted")
	}
}

func TestDepthHistogram(t *testing.T) {
	ix := buildFig2a(t)
	hist := ix.DepthHistogram()
	if len(hist) != ix.Stats.MaxDepth+1 {
		t.Fatalf("histogram depth = %d, want %d", len(hist), ix.Stats.MaxDepth+1)
	}
	if hist[0] != 1 {
		t.Errorf("roots = %d, want 1", hist[0])
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != ix.Stats.ElementNodes {
		t.Errorf("total = %d, want %d", total, ix.Stats.ElementNodes)
	}
	// Depth 5 holds the 12 students of the Databases area plus 2 of Logic.
	if hist[5] == 0 {
		t.Error("no nodes at max depth")
	}
}
