package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &d, nil
}

// values lists one end-to-end metric of one workload over a document's
// sets, skipping sets that lack it.
func (d *document) values(workload, name string) []float64 {
	var out []float64
	for _, set := range d.Sets {
		if res := set[workload]; res != nil {
			if m, ok := res.EndToEnd[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// spread is the run-to-run spread of same-build values as a share of
// their median: the whole range, since an A/A has few sets. One value has
// no spread.
func spread(vs []float64) (float64, bool) {
	if len(vs) < 2 {
		return 0, false
	}
	s := sortedCopy(vs)
	return ratio(s[len(s)-1]-s[0], median(s)), true
}

// worsening is by how much of old the metric got worse; negative when it
// improved.
func worsening(sm specMetric, old, cur float64) float64 {
	if sm.Better == "higher" {
		return ratio(old-cur, old)
	}
	return ratio(cur-old, old)
}

// compareDocs applies each end-to-end metric's bound to every workload the
// two documents share and prints one row per pair. A metric whose spread
// between the old document's own sets exceeds its bound cannot be called
// unchanged and is marked unresolved. It returns 1 when any metric
// worsened by more than its bound, and names those rows.
func compareDocs(w io.Writer, sp *spec, oldPath, newPath string) int {
	old, err := readDocument(oldPath)
	if err == nil {
		var cur *document
		if cur, err = readDocument(newPath); err == nil {
			return compareTable(w, sp, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareTable(w io.Writer, sp *spec, old, cur *document) int {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tnew/old\tworse by\tbound\tA/A spread\tverdict")
	var regressions []string
	for _, wl := range sp.Workloads {
		for _, sm := range sp.EndToEnd {
			ov, nv := old.values(wl.Name, sm.Name), cur.values(wl.Name, sm.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			worse := worsening(sm, om, nm)
			sprd, known := spread(ov)
			verdict, aa := "ok", "n/a"
			if known {
				aa = fmt.Sprintf("%.1f%%", 100*sprd)
			}
			switch {
			case worse > sm.Bound:
				verdict = "REGRESSION"
				regressions = append(regressions, wl.Name+"/"+sm.Name)
			case known && sprd > sm.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f of %.4g\t%+.1f%%\t%.0f%%\t%s\t%s\n",
				wl.Name, sm.Name, om, sm.Unit, nm, sm.Unit, ratio(nm, om), om, 100*worse, 100*sm.Bound, aa, verdict)
		}
	}
	tw.Flush()
	if len(regressions) > 0 {
		fmt.Fprintf(w, "regressed beyond bound: %v\n", regressions)
		return 1
	}
	return 0
}

// printSpread reports, for a document of several sets of one build, how
// far each end-to-end metric moved between the sets.
func printSpread(w io.Writer, sp *spec, d *document) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tspread\tbound\t")
	for _, wl := range sp.Workloads {
		for _, sm := range sp.EndToEnd {
			vs := d.values(wl.Name, sm.Name)
			sprd, known := spread(vs)
			if !known {
				continue
			}
			note := ""
			if sprd > sm.Bound {
				note = "EXCEEDS"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.1f%%\t%.0f%%\t%s\n", wl.Name, sm.Name, median(vs), sm.Unit, 100*sprd, 100*sm.Bound, note)
		}
	}
	tw.Flush()
}
