package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/di"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/metrics"
	"repro/internal/xmltree"
)

// ---------------------------------------------------------------- Table 8

// Table8Row lists the top DI discovered for one paper query at s=1 and
// s=|Q|/2.
type Table8Row struct {
	ID     string
	DI1    []string
	DIHalf []string
}

// Table8 reproduces Table 8: the top-2 insights per query for both s
// settings.
func (s *Suite) Table8() ([]Table8Row, error) {
	const m = 2
	var rows []Table8Row
	for _, pq := range paperQueries() {
		d, err := s.Dataset(pq.Dataset)
		if err != nil {
			return nil, err
		}
		an := di.New(d.Engine)
		q := core.NewQuery(pq.Terms...)
		row := Table8Row{ID: pq.ID}
		r1, err := d.Engine.Search(q, 1)
		if err != nil {
			return nil, err
		}
		for _, in := range an.Discover(r1, m) {
			row.DI1 = append(row.DI1, in.String())
		}
		if q.Len() > 2 {
			half, err := d.Engine.Search(q, q.Len()/2)
			if err != nil {
				return nil, err
			}
			for _, in := range an.Discover(half, m) {
				row.DIHalf = append(row.DIHalf, in.String())
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable8 renders Table 8.
func PrintTable8(w io.Writer, rows []Table8Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tDI, s=1\tDI, s=|Q|/2")
	for _, r := range rows {
		d1, dh := "NA", "NA"
		if len(r.DI1) > 0 {
			d1 = strings.Join(r.DI1, ", ")
		}
		if len(r.DIHalf) > 0 {
			dh = strings.Join(r.DIHalf, ", ")
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.ID, d1, dh)
	}
	tw.Flush()
}

// ------------------------------------------------------------ §7.4 refine

// RefinementResult records the QD1 walk-through of §7.4: DI over the QD1
// response suggests a new co-author; refining the query with it surfaces
// many more joint articles.
type RefinementResult struct {
	OriginalQuery    string
	OriginalJoint    int // articles with both original authors (paper: 1)
	SuggestedAuthor  string
	SuggestionInTop  int // position of the suggestion in the DI list (1-based)
	RefinedQuery     string
	RefinedJoint     int // articles with both refined authors (paper: 10)
	SuggestionListed bool
}

// Refinement reproduces §7.4.
func (s *Suite) Refinement() (*RefinementResult, error) {
	d, err := s.Dataset("dblp")
	if err != nil {
		return nil, err
	}
	georgakopoulos, morrison, rusinkiewicz := datagen.RefinementAuthors()
	q := core.NewQuery(georgakopoulos, morrison)
	resp, err := d.Engine.Search(q, 1)
	if err != nil {
		return nil, err
	}
	res := &RefinementResult{OriginalQuery: q.String()}
	for _, r := range resp.Results {
		if r.KeywordCount == 2 {
			res.OriginalJoint++
		}
	}
	an := di.New(d.Engine)
	insights := an.Discover(resp, 10)
	for i, in := range insights {
		if in.Value == rusinkiewicz {
			res.SuggestedAuthor = in.Value
			res.SuggestionInTop = i + 1
			res.SuggestionListed = true
			break
		}
	}
	refined := core.NewQuery(georgakopoulos, rusinkiewicz)
	res.RefinedQuery = refined.String()
	refResp, err := d.Engine.Search(refined, 2)
	if err != nil {
		return nil, err
	}
	res.RefinedJoint = len(refResp.Results)
	return res, nil
}

// PrintRefinement renders the §7.4 walk-through.
func PrintRefinement(w io.Writer, r *RefinementResult) {
	fmt.Fprintf(w, "Section 7.4 query refinement (QD1):\n")
	fmt.Fprintf(w, "  original query  %s -> %d joint article(s)\n", r.OriginalQuery, r.OriginalJoint)
	if r.SuggestionListed {
		fmt.Fprintf(w, "  DI suggests     <author: %s> (position %d)\n", r.SuggestedAuthor, r.SuggestionInTop)
	} else {
		fmt.Fprintf(w, "  DI suggestion   not found\n")
	}
	fmt.Fprintf(w, "  refined query   %s -> %d joint article(s)\n", r.RefinedQuery, r.RefinedJoint)
}

// ------------------------------------------------------------ §7.5 panel

// FeedbackRow is the simulated §7.5 histogram for one query.
type FeedbackRow struct {
	ID      string
	Ratings metrics.Ratings
}

// Feedback simulates the §7.5 crowd study over the QS/QD/QM workload
// (the paper's 12 rated queries): for each query the GKS and SLCA
// responses are scored against the ground truth (the result nodes carrying
// the most query keywords) and a deterministic 40-rater panel maps the
// utility gap onto 1–4 ratings.
func (s *Suite) Feedback() ([]FeedbackRow, error) {
	var rows []FeedbackRow
	seed := int64(7)
	for _, pq := range paperQueries() {
		if pq.Dataset == "interpro" {
			continue // the paper's panel rated QS/QD/QM only
		}
		d, err := s.Dataset(pq.Dataset)
		if err != nil {
			return nil, err
		}
		q := core.NewQuery(pq.Terms...)
		resp, err := d.Engine.Search(q, 1)
		if err != nil {
			return nil, err
		}
		// Graded usefulness: a GKS result is as useful as the fraction of
		// query keywords it carries; every (non-root) SLCA node carries all
		// keywords and grades 1.
		maxKw := 0
		for _, r := range resp.Results {
			if r.KeywordCount > maxKw {
				maxKw = r.KeywordCount
			}
		}
		var gksGrades []float64
		if maxKw > 0 {
			for _, r := range resp.Results {
				gksGrades = append(gksGrades, float64(r.KeywordCount)/float64(maxKw))
			}
		}
		var slcaGrades []float64
		for _, ord := range lca.SLCA(d.Index, d.Engine.PostingLists(q)) {
			if d.Index.DepthOf(ord) > 0 {
				slcaGrades = append(slcaGrades, 1)
			}
		}
		gksU := metrics.GradedUtility(gksGrades, 10)
		slcaU := metrics.GradedUtility(slcaGrades, 10)
		seed++
		rows = append(rows, FeedbackRow{
			ID:      pq.ID,
			Ratings: metrics.Feedback{Raters: 40, Seed: seed}.Rate(gksU, slcaU),
		})
	}
	return rows, nil
}

// PrintFeedback renders the §7.5 histogram plus the headline percentage.
func PrintFeedback(w io.Writer, rows []FeedbackRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\t1\t2\t3\t4")
	better, total := 0, 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", r.ID,
			r.Ratings.Counts[0], r.Ratings.Counts[1], r.Ratings.Counts[2], r.Ratings.Counts[3])
		better += r.Ratings.GKSBetter()
		total += r.Ratings.Total()
	}
	tw.Flush()
	if total > 0 {
		fmt.Fprintf(w, "GKS-better (rating 1 or 2): %d/%d = %.1f%% (paper: 430/480 = 89.6%%)\n",
			better, total, 100*float64(better)/float64(total))
	}
}

// ------------------------------------------------------------ §7.6 hybrid

// HybridResult records the §7.6 hybrid query experiment over the merged
// DBLP + SIGMOD Record repository.
type HybridResult struct {
	Query          string
	Results        int
	DBLPNodes      int // inproceedings results (first two authors)
	SigmodNodes    int // article results (last two authors)
	ArticlesOnTop  bool
	TopLabels      []string
	OnlyTargetHits bool
}

// Hybrid reproduces §7.6: DBLP and SIGMOD Record are merged under a common
// root, with two extra connecting nodes increasing the SIGMOD subtree's
// depth. The 4-author query at s=2 must return exactly the 3 DBLP
// inproceedings (first author pair) and 5 SIGMOD articles (second pair),
// with the 2-author articles ranked above the deeper-but-crowded
// inproceedings — demonstrating depth-independent ranking.
func (s *Suite) Hybrid() (*HybridResult, error) {
	dblp := datagen.PaperDBLP(s.Scale)
	sigmod := datagen.PaperSigmod(s.Scale)
	// Two connecting nodes between the common root and the SIGMOD root.
	wrapped := xmltree.E("archive", xmltree.E("collection", sigmod.Root))
	merged := xmltree.E("repository", dblp.Root, wrapped)
	repo := datagen.Repo(xmltree.NewDocument("hybrid.xml", 0, merged))
	ix, err := index.Build(repo, index.DefaultOptions())
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(ix)
	q := core.NewQuery(datagen.HybridAuthors()...)
	resp, err := eng.Search(q, 2)
	if err != nil {
		return nil, err
	}
	res := &HybridResult{Query: q.String(), Results: len(resp.Results), OnlyTargetHits: true}
	for i, r := range resp.Results {
		switch r.Label {
		case "inproceedings":
			res.DBLPNodes++
		case "article":
			res.SigmodNodes++
		default:
			res.OnlyTargetHits = false
		}
		if i < 5 {
			res.TopLabels = append(res.TopLabels, r.Label)
		}
	}
	res.ArticlesOnTop = len(res.TopLabels) > 0
	for i := 0; i < len(res.TopLabels) && i < res.SigmodNodes; i++ {
		if res.TopLabels[i] != "article" {
			res.ArticlesOnTop = false
		}
	}
	return res, nil
}

// PrintHybrid renders the §7.6 outcome.
func PrintHybrid(w io.Writer, r *HybridResult) {
	fmt.Fprintf(w, "Section 7.6 hybrid query: %s (s=2)\n", r.Query)
	fmt.Fprintf(w, "  results: %d (paper: 8 — 3 inproceedings + 5 articles)\n", r.Results)
	fmt.Fprintf(w, "  inproceedings: %d, articles: %d, only-targets: %v\n",
		r.DBLPNodes, r.SigmodNodes, r.OnlyTargetHits)
	fmt.Fprintf(w, "  articles ranked above deeper inproceedings: %v (top: %v)\n",
		r.ArticlesOnTop, r.TopLabels)
}

// ------------------------------------------------------- Lemma 3 ablation

// NaiveRow compares the single-pass GKS search with the exponential
// subset-enumeration strawman of Lemma 3.
type NaiveRow struct {
	N          int
	S          int
	GKSTime    time.Duration
	NaiveTime  time.Duration
	GKSNodes   int
	NaiveNodes int
	Subsets    int
}

// NaiveAblation runs both algorithms for n = 2..8 keywords at s = n/2 on
// the SIGMOD analog.
func (s *Suite) NaiveAblation() ([]NaiveRow, error) {
	d, err := s.Dataset("sigmod")
	if err != nil {
		return nil, err
	}
	terms := []string{
		"Anthony I. Wasserman", "Lawrence A. Rowe", "S. Jerrold Kaplan",
		"Robert P. Trueblood", "David J. DeWitt", "Randy H. Katz",
		"David A. Patterson", "Garth A. Gibson",
	}
	var rows []NaiveRow
	for n := 2; n <= len(terms); n++ {
		q := core.NewQuery(terms[:n]...)
		sThresh := n / 2
		if sThresh < 1 {
			sThresh = 1
		}
		gksTime, resp, err := timeSearch(d.Engine, q, sThresh, 3)
		if err != nil {
			return nil, err
		}
		lists := d.Engine.PostingLists(q)
		start := time.Now()
		naive := lca.NaiveGKS(d.Index, lists, sThresh)
		naiveTime := time.Since(start)
		subsets := 0
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) >= sThresh {
				subsets++
			}
		}
		rows = append(rows, NaiveRow{
			N: n, S: sThresh, GKSTime: gksTime, NaiveTime: naiveTime,
			GKSNodes: len(resp.Results), NaiveNodes: len(naive), Subsets: subsets,
		})
	}
	return rows, nil
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// PrintNaiveAblation renders the Lemma 3 comparison.
func PrintNaiveAblation(w io.Writer, rows []NaiveRow) {
	fmt.Fprintln(w, "Lemma 3 ablation: single-pass GKS vs subset-enumeration SLCA union")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\ts\tsubsets\tGKS time\tnaive time\tGKS nodes\tnaive nodes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%v\t%d\t%d\n",
			r.N, r.S, r.Subsets, r.GKSTime.Round(time.Microsecond),
			r.NaiveTime.Round(time.Microsecond), r.GKSNodes, r.NaiveNodes)
	}
	tw.Flush()
}

// -------------------------------------------------------- recursive DI

// RecursiveDIRound summarizes one round of the §2.3 recursion R^r_Q(s).
type RecursiveDIRound struct {
	Round    int
	Query    string
	Results  int
	Insights []string
}

// RecursiveDI runs the recursive DI procedure for the QD1 query: round 0's
// insights become round 1's query, and so on — the mechanism behind the
// paper's "recursive DI may reveal deeper insights".
func (s *Suite) RecursiveDI(rounds int) ([]RecursiveDIRound, error) {
	d, err := s.Dataset("dblp")
	if err != nil {
		return nil, err
	}
	georgakopoulos, morrison, _ := datagen.RefinementAuthors()
	search := func(q core.Query) (*core.Response, error) { return d.Engine.Search(q, 1) }
	all, err := di.DiscoverRecursive(core.NewQuery(georgakopoulos, morrison), 3, rounds, search, di.New(d.Engine).Discover)
	if err != nil {
		return nil, err
	}
	var out []RecursiveDIRound
	for i, r := range all {
		row := RecursiveDIRound{Round: i, Query: r.Query.String(), Results: len(r.Response.Results)}
		for _, in := range r.Insights {
			row.Insights = append(row.Insights, in.String())
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintRecursiveDI renders the rounds.
func PrintRecursiveDI(w io.Writer, rows []RecursiveDIRound) {
	fmt.Fprintln(w, "Recursive DI (§2.3): R^r_Q(s) rounds for QD1")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "round\tquery\tresults\tinsights")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%s\n", r.Round, r.Query, r.Results, strings.Join(r.Insights, ", "))
	}
	tw.Flush()
}
