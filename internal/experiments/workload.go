package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// Query-workload sampling: instead of hand-picked keyword sets, sample
// queries from the index vocabulary stratified by posting-list length, so
// response-time figures cover the selectivity spectrum representatively.

// SampleQueries draws count queries of n keywords each from ix's
// vocabulary. Keywords are drawn from frequency strata (one quarter each
// from the shortest to the longest posting-list quartiles), so every query
// mixes rare and frequent terms the way real query logs do. Sampling is
// deterministic in seed.
func SampleQueries(ix *index.Index, n, count int, seed int64) []core.Query {
	vocab := ix.TopKeywords(0) // sorted by frequency desc
	if len(vocab) == 0 || n <= 0 || count <= 0 {
		return nil
	}
	sort.Slice(vocab, func(i, j int) bool { return vocab[i].Count < vocab[j].Count })
	rng := rand.New(rand.NewSource(seed))
	quartile := func(q int) []index.KeywordFreq {
		lo := q * len(vocab) / 4
		hi := (q + 1) * len(vocab) / 4
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(vocab) {
			hi = len(vocab)
		}
		return vocab[lo:hi]
	}
	var out []core.Query
	for len(out) < count {
		terms := make([]string, 0, n)
		seen := map[string]bool{}
		for len(terms) < n {
			stratum := quartile(len(terms) % 4)
			kw := stratum[rng.Intn(len(stratum))].Keyword
			if seen[kw] {
				continue
			}
			seen[kw] = true
			terms = append(terms, kw)
		}
		q := core.NewQuery(terms...)
		if q.Len() == n {
			out = append(out, q)
		}
	}
	return out
}

// Figure8Sampled re-runs the Figure 8 experiment over sampled n=8 queries
// rather than the hand-picked keyword mixes, checking the RT-vs-|S_L|
// linearity claim without selection bias.
func (s *Suite) Figure8Sampled(queriesPerDataset int) ([]RTPoint, error) {
	if queriesPerDataset <= 0 {
		queriesPerDataset = 8
	}
	var points []RTPoint
	for _, name := range []string{"nasa", "swissprot"} {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		for i, q := range SampleQueries(d.Index, 8, queriesPerDataset, 99) {
			el, resp, err := timeSearch(d.Engine, q, 2, 3)
			if err != nil {
				return nil, err
			}
			points = append(points, RTPoint{
				Dataset: name, Query: fmt.Sprintf("sample-%02d", i), N: 8,
				SLSize: resp.SLSize, Time: el, Results: len(resp.Results),
			})
		}
	}
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Dataset != points[j].Dataset {
			return points[i].Dataset < points[j].Dataset
		}
		return points[i].SLSize < points[j].SLSize
	})
	return points, nil
}

// LinearFit returns the least-squares slope and Pearson correlation of
// time-vs-|S_L| for a point series — the quantitative form of "RT
// increases linearly with S_L" (§7.1.2).
func LinearFit(points []RTPoint) (slopeNsPerEntry, r float64) {
	n := float64(len(points))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range points {
		x := float64(p.SLSize)
		y := float64(p.Time / time.Nanosecond)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope := (n*sxy - sx*sy) / den
	varY := n*syy - sy*sy
	if varY <= 0 {
		return slope, 0
	}
	r = (n*sxy - sx*sy) / (math.Sqrt(den) * math.Sqrt(varY))
	return slope, r
}

// PrintFigure8Sampled renders the sampled series with the linear fit.
func PrintFigure8Sampled(w io.Writer, points []RTPoint) {
	fmt.Fprintln(w, "Figure 8 (sampled queries): response time vs |S_L|, n=8")
	PrintRTPoints(w, points)
	byDataset := map[string][]RTPoint{}
	for _, p := range points {
		byDataset[p.Dataset] = append(byDataset[p.Dataset], p)
	}
	names := make([]string, 0, len(byDataset))
	for name := range byDataset {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		slope, r := LinearFit(byDataset[name])
		fmt.Fprintf(w, "%s: linear fit %.1f ns per S_L entry, correlation r = %.3f\n", name, slope, r)
	}
}
