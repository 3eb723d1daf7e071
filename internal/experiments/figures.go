package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// RTPoint is one response-time measurement: the paper plots RT against the
// merged list size |S_L| (Figure 8) and against the number of query
// keywords n (Figure 9).
type RTPoint struct {
	Dataset string
	Query   string
	N       int
	SLSize  int
	Time    time.Duration
	Results int
}

// figureKeywords returns 16 keywords of mixed selectivity for a dataset —
// frequent element names first (long posting lists), then values.
var figureKeywords = map[string][]string{
	"nasa": {
		"author", "title", "reference", "year", "lastname", "dataset",
		"quasar", "pulsar", "nebula", "supernova", "galaxy", "cluster",
		"comet", "asteroid", "magnetar", "exoplanet",
	},
	"swissprot": {
		"Entry", "Author", "Keyword", "Descr", "Ref", "Features",
		"Kinase", "Hydrolase", "Helicase", "Transferase", "Bacteria",
		"Eukaryota", "Zinc", "Membrane", "Signal", "Protease",
	},
}

// Figure8 reproduces Figure 8: response time versus |S_L| with the number
// of keywords fixed at 8. Queries of increasing selectivity produce the
// spread of |S_L| values; the paper's claim is that RT grows linearly
// with |S_L| for fixed n and d.
func (s *Suite) Figure8() ([]RTPoint, error) {
	var points []RTPoint
	for _, name := range []string{"nasa", "swissprot"} {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		kws := figureKeywords[name]
		// Five n=8 queries sliding from rare (values only) to frequent
		// (element names included) keyword mixes.
		for shift := 0; shift+8 <= len(kws); shift += 2 {
			terms := kws[shift : shift+8]
			q := core.NewQuery(terms...)
			el, resp, err := timeSearch(d.Engine, q, 2, 3)
			if err != nil {
				return nil, err
			}
			points = append(points, RTPoint{
				Dataset: name, Query: fmt.Sprintf("shift=%d", shift), N: 8,
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

// Figure9 reproduces Figure 9: response time versus the number of query
// keywords n = 2..16. The paper's claim is a logarithmic dependence on n
// for comparable |S_L|.
func (s *Suite) Figure9() ([]RTPoint, error) {
	var points []RTPoint
	for _, name := range []string{"nasa", "swissprot"} {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		kws := figureKeywords[name]
		for n := 2; n <= 16; n += 2 {
			q := core.NewQuery(kws[:n]...)
			el, resp, err := timeSearch(d.Engine, q, 2, 3)
			if err != nil {
				return nil, err
			}
			points = append(points, RTPoint{
				Dataset: name, Query: fmt.Sprintf("n=%d", n), N: n,
				SLSize: resp.SLSize, Time: el, Results: len(resp.Results),
			})
		}
	}
	return points, nil
}

// PrintRTPoints renders Figure 8/9 series.
func PrintRTPoints(w io.Writer, points []RTPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tQuery\tn\t|S_L|\tResponse Time\tResults")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%v\t%d\n",
			p.Dataset, p.Query, p.N, p.SLSize, p.Time.Round(time.Microsecond), p.Results)
	}
	tw.Flush()
}

// Fig10Point is one scalability measurement: the SwissProt analog
// replicated 1..3 times, as in the paper's Figure 10.
type Fig10Point struct {
	Replicas  int
	DataBytes int64
	SLSize    int
	Time      time.Duration
	Results   int
}

// Figure10 reproduces Figure 10: the same query against 1×, 2× and 3×
// replicas of the SwissProt analog; response time and result counts must
// scale linearly with data size.
func (s *Suite) Figure10() ([]Fig10Point, error) {
	var points []Fig10Point
	q := core.NewQuery("Kinase", "Author", "Zinc", "Membrane")
	for replicas := 1; replicas <= 3; replicas++ {
		repo := datagen.Replicate(func() *xmltree.Document {
			return datagen.SwissProt(datagen.Config{Seed: 42, Scale: s.Scale})
		}, replicas)
		ix, err := index.Build(repo, index.DefaultOptions())
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(ix)
		el, resp, err := timeSearch(eng, q, 2, 3)
		if err != nil {
			return nil, err
		}
		var dataBytes int64
		for _, doc := range repo.Docs {
			n, err := xmltree.XMLSize(doc)
			if err != nil {
				return nil, err
			}
			dataBytes += n
		}
		points = append(points, Fig10Point{
			Replicas: replicas, DataBytes: dataBytes, SLSize: resp.SLSize,
			Time: el, Results: len(resp.Results),
		})
	}
	return points, nil
}

// PrintFigure10 renders the scalability series.
func PrintFigure10(w io.Writer, points []Fig10Point) {
	fmt.Fprintln(w, "Figure 10: response time for replicated SwissProt datasets")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Replicas\t|S_L|\tResponse Time\tResults")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%d\t%v\t%d\n", p.Replicas, p.SLSize, p.Time.Round(time.Microsecond), p.Results)
	}
	tw.Flush()
}
