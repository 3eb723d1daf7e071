package gks_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7). `go test -bench=. -benchmem` regenerates every
// experiment; cmd/gksbench prints the full paper-style tables. Scale via
// GKS_BENCH_SCALE (default 1).

import (
	"os"
	"strconv"
	"testing"

	gks "repro"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/schema"
)

func benchScale() int {
	if v := os.Getenv("GKS_BENCH_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// BenchmarkTable1ToyQueries reproduces Table 1: GKS vs ELCA vs SLCA on the
// Figure 1 tree.
func BenchmarkTable1ToyQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4IndexBuild reproduces Table 4: index build time over the
// dataset analogs (size and depth are printed by cmd/gksbench).
func BenchmarkTable4IndexBuild(b *testing.B) {
	repo := datagen.Repo(datagen.SwissProt(datagen.Config{Seed: 42, Scale: benchScale()}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(repo, index.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Categorize measures the node-categorization pass backing
// Table 5 (it is part of the single-pass index build).
func BenchmarkTable5Categorize(b *testing.B) {
	repo := datagen.Repo(datagen.Mondial(datagen.Config{Seed: 42, Scale: benchScale()}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := index.Build(repo, index.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if ix.Stats.EntityNodes == 0 {
			b.Fatal("no entities")
		}
	}
}

// BenchmarkFig8ResponseTimeVsListSize reproduces Figure 8's workload: an
// n=8 query over the NASA analog (response time scales with |S_L|).
func BenchmarkFig8ResponseTimeVsListSize(b *testing.B) {
	ix, err := index.Build(datagen.Repo(datagen.NASA(datagen.Config{Seed: 42, Scale: benchScale()})), index.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(ix)
	q := core.NewQuery("author", "title", "reference", "year", "quasar", "pulsar", "galaxy", "cluster")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(q, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ResponseTimeVsKeywords reproduces Figure 9: n = 2, 8 and 16
// keyword queries over the SwissProt analog.
func BenchmarkFig9ResponseTimeVsKeywords(b *testing.B) {
	ix, err := index.Build(datagen.Repo(datagen.SwissProt(datagen.Config{Seed: 42, Scale: benchScale()})), index.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(ix)
	kws := []string{
		"Entry", "Author", "Keyword", "Descr", "Ref", "Features",
		"Kinase", "Hydrolase", "Helicase", "Transferase", "Bacteria",
		"Eukaryota", "Zinc", "Membrane", "Signal", "Protease",
	}
	for _, n := range []int{2, 8, 16} {
		q := core.NewQuery(kws[:n]...)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Search(q, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Scalability reproduces Figure 10: the same query over 1x,
// 2x and 3x replicas of the SwissProt analog.
func BenchmarkFig10Scalability(b *testing.B) {
	for _, replicas := range []int{1, 2, 3} {
		repo := datagen.Replicate(func() *gks.Document {
			return datagen.SwissProt(datagen.Config{Seed: 42, Scale: benchScale()})
		}, replicas)
		ix, err := index.Build(repo, index.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		eng := core.NewEngine(ix)
		q := core.NewQuery("Kinase", "Author", "Zinc", "Membrane")
		b.Run("replicas="+strconv.Itoa(replicas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Search(q, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7Queries runs the full Table 6/7 workload: all fourteen
// paper queries with GKS at s=1 and s=|Q|/2 plus the SLCA baseline.
func BenchmarkTable7Queries(b *testing.B) {
	s := experiments.NewSuite(benchScale())
	if _, err := s.Table7(); err != nil { // warm the dataset cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8DI runs DI discovery over the Table 6 workload.
func BenchmarkTable8DI(b *testing.B) {
	s := experiments.NewSuite(benchScale())
	if _, err := s.Table8(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackSimulation runs the §7.5 simulated crowd panel.
func BenchmarkFeedbackSimulation(b *testing.B) {
	s := experiments.NewSuite(benchScale())
	if _, err := s.Feedback(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Feedback(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridQueries runs the §7.6 hybrid-repository experiment.
func BenchmarkHybridQueries(b *testing.B) {
	s := experiments.NewSuite(benchScale())
	for i := 0; i < b.N; i++ {
		r, err := s.Hybrid()
		if err != nil {
			b.Fatal(err)
		}
		if r.Results != 8 {
			b.Fatalf("hybrid results = %d", r.Results)
		}
	}
}

// BenchmarkNaiveVsGKS contrasts the single-pass search with the Lemma 3
// subset-enumeration strawman at n=8, s=4.
func BenchmarkNaiveVsGKS(b *testing.B) {
	ix, err := index.Build(datagen.Repo(datagen.PaperSigmod(benchScale())), index.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(ix)
	terms := []string{
		"Anthony I. Wasserman", "Lawrence A. Rowe", "S. Jerrold Kaplan",
		"Robert P. Trueblood", "David J. DeWitt", "Randy H. Katz",
		"David A. Patterson", "Garth A. Gibson",
	}
	q := core.NewQuery(terms...)
	lists := eng.PostingLists(q)
	b.Run("gks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Search(q, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lca.NaiveGKS(ix, lists, 4)
		}
	})
}

// BenchmarkRefinement runs the §7.4 DI-driven refinement walk-through.
func BenchmarkRefinement(b *testing.B) {
	s := experiments.NewSuite(benchScale())
	if _, err := s.Refinement(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Refinement(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemaCategorization measures the schema-inference +
// re-categorization pass of the §2.2 future-work extension.
func BenchmarkSchemaCategorization(b *testing.B) {
	ix, err := index.Build(datagen.Repo(datagen.PaperSigmod(benchScale())), index.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := schema.Infer(ix)
		if cats := s.Categorize(ix); len(cats) != ix.NodeCount() {
			b.Fatal("bad categorization")
		}
	}
}

// BenchmarkSearchTopK contrasts full search with pruned top-k retrieval on
// a query with a long tail of single-keyword results (QD2-style).
func BenchmarkSearchTopK(b *testing.B) {
	ix, err := index.Build(datagen.Repo(datagen.PaperDBLP(benchScale())), index.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(ix)
	q := core.NewQuery("Peter Buneman", "Wenfei Fan", "Scott Weinstein", "Prithviraj Banerjee")
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Search(q, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("top10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.SearchTopK(q, 1, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFSLCA runs the simplified MESSIAH baseline with inferred target
// types over the QM/QI workload (§7.3 comparison).
func BenchmarkFSLCA(b *testing.B) {
	s := experiments.NewSuite(benchScale())
	if _, err := s.FSLCA(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FSLCA(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Sampled runs the stratified-sampled Figure 8 workload.
func BenchmarkFig8Sampled(b *testing.B) {
	s := experiments.NewSuite(benchScale())
	if _, err := s.Figure8Sampled(4); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure8Sampled(4); err != nil {
			b.Fatal(err)
		}
	}
}
