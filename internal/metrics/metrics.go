// Package metrics implements the evaluation measures of the paper's §7
// (Agarwal et al., EDBT 2016): the rank score of §7.3, standard precision
// and recall, and the simulated crowd-feedback model substituting for the
// 40-rater study of §7.5 (see DESIGN.md §3).
package metrics

import "math"

// RankScore computes the §7.3 rank score from the 1-based positions of the
// "true" XML nodes (the results carrying the most query keywords) within
// the ranked list. Let w be the lowest (largest) position of a true node;
// each true node at position i weighs w+1-i; the score is the ratio of the
// summed weights w_a to the ideal total w_t = w(w+1)/2. A score of 1 means
// no true node is ranked below a non-true node.
func RankScore(truePositions []int) float64 {
	if len(truePositions) == 0 {
		return 0
	}
	w := 0
	for _, p := range truePositions {
		if p > w {
			w = p
		}
	}
	if w <= 0 {
		return 0
	}
	wa := 0
	for _, p := range truePositions {
		wa += w + 1 - p
	}
	wt := w * (w + 1) / 2
	return float64(wa) / float64(wt)
}

// TruePositions returns the 1-based positions of the results whose keyword
// count equals the maximum — the paper's "true XML nodes".
func TruePositions(keywordCounts []int) []int {
	max := 0
	for _, c := range keywordCounts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return nil
	}
	var out []int
	for i, c := range keywordCounts {
		if c == max {
			out = append(out, i+1)
		}
	}
	return out
}

// PrecisionRecall computes precision and recall of a retrieved set against
// a relevant set; both are reported as 0 when their denominator is 0.
func PrecisionRecall(retrieved, relevant map[int32]bool) (precision, recall float64) {
	if len(retrieved) == 0 || len(relevant) == 0 {
		return 0, 0
	}
	hits := 0
	for r := range retrieved {
		if relevant[r] {
			hits++
		}
	}
	return float64(hits) / float64(len(retrieved)), float64(hits) / float64(len(relevant))
}

// GradedUtility scores a ranked response by graded relevance: grades[i] in
// [0, 1] is the usefulness of the i-th result (for GKS responses, the
// fraction of query keywords the node carries; for LCA baselines, 1 per
// answer node). The gain of the first k slots is discounted DCG-style and
// normalized against a hypothetical list of k perfectly useful results, so
// a response that surfaces *more* partially-relevant information scores
// higher than a single exact hit — the usefulness notion behind the
// paper's §7.5 user preferences.
func GradedUtility(grades []float64, k int) float64 {
	if k <= 0 {
		k = len(grades)
	}
	gain, denom := 0.0, 0.0
	for i := 0; i < k; i++ {
		d := 1 / math.Log2(float64(i)+2)
		denom += d
		if i < len(grades) {
			g := grades[i]
			if g < 0 {
				g = 0
			} else if g > 1 {
				g = 1
			}
			gain += g * d
		}
	}
	if denom == 0 {
		return 0
	}
	return gain / denom
}
