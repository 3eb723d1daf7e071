package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as supported: below that, the value is one or two outliers and
// not a property of the distribution.
const minBeyond = 10

// metric is one reported number. N is the sample count behind a timing
// (0 for counts and ratios measured once); Unsupported marks a percentile
// with fewer than minBeyond samples beyond it — the value is still the
// nearest-rank sample, but it must not be compared.
type metric struct {
	Value       float64 `json:"value"`
	Unit        string  `json:"unit"`
	N           int     `json:"n,omitempty"`
	Unsupported bool    `json:"unsupported,omitempty"`
}

// metrics maps a metric name to its value; names match BENCHMARK.json.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) setN(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// setPct stores the nearest-rank p-th percentile of samples.
func (m metrics) setPct(name string, samples []float64, p float64, unit string) {
	m[name] = pctOf(sortedCopy(samples), p, 1, unit)
}

// pctOf is the nearest-rank p-th percentile of an ascending slice as a
// multiple of per.
func pctOf(sorted []float64, p, per float64, unit string) metric {
	v, ok := percentile(sorted, p)
	return metric{Value: ratio(v, per), Unit: unit, N: len(sorted), Unsupported: !ok}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, and whether at least minBeyond samples lie beyond it.
// An empty slice yields (0, false).
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }
func mib(bytes int64) float64     { return float64(bytes) / (1 << 20) }
