package index

import "sort"

// Corpus statistics beyond the build-time counters: term and label
// distributions used by cmd/gks stats, the dataset generators' validation
// and capacity planning for real deployments.

// KeywordFreq pairs a normalized keyword with its posting-list length.
type KeywordFreq struct {
	Keyword string
	Count   int
}

// TopKeywords returns the k keywords with the longest posting lists,
// descending; ties break alphabetically. k <= 0 returns all keywords.
func (ix *Index) TopKeywords(k int) []KeywordFreq {
	out := make([]KeywordFreq, 0, len(ix.Postings))
	ix.ForEachKeyword(func(kw string, live int) {
		out = append(out, KeywordFreq{Keyword: kw, Count: live})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Keyword < out[j].Keyword
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// LabelCount pairs an element label with its instance count and dominant
// category distribution.
type LabelCount struct {
	Label string
	Count int
	// PerCategory counts instances carrying each category bit, indexed by
	// Attribute, Repeating, Entity, Connecting in that order.
	PerCategory [4]int
}

// LabelHistogram returns per-label instance counts with category splits,
// ordered by count descending (ties alphabetically).
func (ix *Index) LabelHistogram() []LabelCount {
	counts := make([]LabelCount, len(ix.Labels))
	for i, l := range ix.Labels {
		counts[i].Label = l
	}
	for _, sp := range ix.LiveSpans() {
		for ord := sp[0]; ord < sp[1]; ord++ {
			lc := &counts[ix.LabelIDOf(ord)]
			lc.Count++
			cat := ix.CatOf(ord)
			if cat&Attribute != 0 {
				lc.PerCategory[0]++
			}
			if cat&Repeating != 0 {
				lc.PerCategory[1]++
			}
			if cat&Entity != 0 {
				lc.PerCategory[2]++
			}
			if cat&Connecting != 0 {
				lc.PerCategory[3]++
			}
		}
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].Count != counts[j].Count {
			return counts[i].Count > counts[j].Count
		}
		return counts[i].Label < counts[j].Label
	})
	return counts
}

// DepthHistogram returns the number of element nodes at each depth
// (index 0 = document roots).
func (ix *Index) DepthHistogram() []int {
	var hist []int
	for _, sp := range ix.LiveSpans() {
		for ord := sp[0]; ord < sp[1]; ord++ {
			d := int(ix.DepthOf(ord))
			for len(hist) <= d {
				hist = append(hist, 0)
			}
			hist[d]++
		}
	}
	return hist
}
