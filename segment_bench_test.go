package gks_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gks "repro"

	"repro/internal/datagen"
	"repro/internal/segment"
)

// BenchmarkSegmentColdQuery is the in-process layer row of the
// cold_segment workload: the four corpus analogs (seed 42, scale 16 by
// default, GKS_BENCH_SCALE overrides) as one GKS4 segment behind a 1 MiB
// block cache, asked 2–3-keyword AND queries whose keywords are drawn
// from per-block strata of the vocabulary, so nearly every query needs a
// block the cache does not hold. Besides ns/op it reports the blocks read
// from disk per query.
func BenchmarkSegmentColdQuery(b *testing.B) {
	scale := 16
	if s := benchScale(); s > 1 {
		scale = s
	}
	var fetched missCounter
	sys := openColdSegment(b, scale, &fetched)
	defer sys.CloseIndex()
	queries := coldQueries(sys, sys.Segment().NumBlocks(), 4096)

	ctx := context.Background()
	search := func(q gks.Query) {
		if _, err := sys.Search(ctx, gks.SearchRequest{Query: q, S: q.Len(), TopK: 10}); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range queries[:256] {
		search(q)
	}
	reads := fetched.n.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(queries[i%len(queries)])
	}
	b.StopTimer()
	b.ReportMetric(float64(fetched.n.Load()-reads)/float64(b.N), "blocks/op")
}

// missCounter is a segment.Metrics sink that counts block-cache misses;
// each is one posting block read from disk.
type missCounter struct{ n atomic.Int64 }

func (c *missCounter) BlockCacheHit()                  {}
func (c *missCounter) BlockCacheMiss()                 { c.n.Add(1) }
func (c *missCounter) BlockCacheEvict()                {}
func (c *missCounter) SetBlockCacheBytes(int64)        {}
func (c *missCounter) ObserveBlockFetch(time.Duration) {}

// TestColdBlocksPruned pins the threshold merge and the window prune on
// BenchmarkSegmentColdQuery's corpus and queries at scale 1: the records
// the merge examined and kept, the block count over the kept records'
// entries, and the number of blocks skipped because their ends lie in two
// records or their LCA is a document root. All are exact and
// machine-independent, so a change that loses the filter or the prune
// fails here in seconds.
func TestColdBlocksPruned(t *testing.T) {
	const wantTouched, wantQualified = 85098, 9594
	const wantBlocks, wantPruned = 24491, 11352
	sys := openColdSegment(t, 1, nil)
	defer sys.CloseIndex()
	touched, qualified, blocks, pruned := 0, 0, 0, 0
	for _, q := range coldQueries(sys, sys.Segment().NumBlocks(), 4096) {
		ex, err := sys.Explain(context.Background(), q, q.Len())
		if err != nil {
			t.Fatal(err)
		}
		touched += ex.RecordsTouched
		qualified += ex.RecordsQualified
		blocks += ex.Blocks
		pruned += ex.PrunedBlocks
	}
	if touched != wantTouched || qualified != wantQualified {
		t.Errorf("cold queries: %d records touched, %d qualified; want %d, %d", touched, qualified, wantTouched, wantQualified)
	}
	if blocks != wantBlocks || pruned != wantPruned {
		t.Errorf("cold queries: %d blocks, %d pruned; want %d, %d", blocks, pruned, wantBlocks, wantPruned)
	}
}

// openColdSegment writes the cold_segment corpus analogs (seed 42) at the
// given scale as one GKS4 segment and opens it behind a 1 MiB block cache
// that reports to m (nil discards).
func openColdSegment(tb testing.TB, scale int, m segment.Metrics) *gks.System {
	tb.Helper()
	cfg := datagen.Config{Seed: 42, Scale: scale}
	built, err := gks.IndexDocuments(datagen.NASA(cfg), datagen.SwissProt(cfg), datagen.PaperDBLP(scale), datagen.PaperSigmod(scale))
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "cold.gks4")
	if err := built.SaveSegmentFile(path); err != nil {
		tb.Fatal(err)
	}
	sys, err := gks.LoadIndexFileOpts(path, gks.SegmentOptions{CacheBytes: 1 << 20, Metrics: m})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// coldQueries draws n distinct 2–3-keyword queries. The sorted vocabulary
// is cut into as many equal shares of postings as the segment has blocks
// (the writer fills blocks with whole lists in term order, so a share is
// about one block); a keyword is a uniform share, then a uniform term of
// it with at most 1000 postings that the query parser keeps unchanged.
func coldQueries(sys *gks.System, blocks, n int) []gks.Query {
	vocab := sys.TopKeywords(0)
	sort.Slice(vocab, func(i, j int) bool { return vocab[i].Keyword < vocab[j].Keyword })
	total := 0
	for _, kf := range vocab {
		total += kf.Count
	}
	strata := make([][]string, blocks)
	seenMass := 0
	for _, kf := range vocab {
		s := min(seenMass*blocks/total, blocks-1)
		seenMass += kf.Count
		if q := gks.NewQuery(kf.Keyword); kf.Count <= 1000 && q.Len() == 1 && len(q.Keywords[0].Tokens) == 1 && q.Keywords[0].Tokens[0] == kf.Keyword {
			strata[s] = append(strata[s], kf.Keyword)
		}
	}
	nonEmpty := strata[:0]
	for _, s := range strata {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	rng := rand.New(rand.NewSource(42))
	seen := map[string]bool{}
	var out []gks.Query
	for len(out) < n {
		terms := make([]string, 2+rng.Intn(2))
		for i := range terms {
			s := nonEmpty[rng.Intn(len(nonEmpty))]
			terms[i] = s[rng.Intn(len(s))]
		}
		key := strings.Join(terms, " ")
		if q := gks.NewQuery(terms...); q.Len() == len(terms) && !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}
