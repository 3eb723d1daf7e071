package gks

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// segmentPair builds an eager in-memory system from docs, persists it as a
// GKS4 segment, and reopens that file lazily with the given block-cache
// capacity. Every differential test in this file diffs the two systems:
// the segment-backed one must be observationally identical to the eager
// one on the full read surface.
func segmentPair(t *testing.T, cacheBytes int64, docs ...*Document) (eager, lazy *System) {
	t.Helper()
	eager, err := IndexDocuments(docs...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.gks4")
	if err := eager.SaveSegmentFile(path); err != nil {
		t.Fatal(err)
	}
	lazy, err = LoadIndexFileOpts(path, SegmentOptions{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Segment() == nil {
		t.Fatal("LoadIndexFileOpts on a GKS4 file did not produce a segment-backed system")
	}
	t.Cleanup(func() {
		if err := lazy.CloseIndex(); err != nil {
			t.Errorf("CloseIndex: %v", err)
		}
	})
	return eager, lazy
}

func segmentCorpora(t *testing.T) map[string][]*Document {
	t.Helper()
	uni, err := ParseDocumentString(universityXML, "university.xml")
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]*Document{
		"university": {uni},
		"swissprot": {
			datagen.SwissProt(datagen.Config{Seed: 7, Scale: 2}),
			datagen.Mondial(datagen.Config{Seed: 11, Scale: 1}),
		},
		"mondial": {
			datagen.Mondial(datagen.Config{Seed: 3, Scale: 2}),
		},
	}
}

// vocab returns the corpus keyword vocabulary in sorted order so seeded
// query generation is deterministic.
func vocab(sys *System) []string {
	kws := make([]string, 0, len(sys.ix.Postings))
	for kw := range sys.ix.Postings {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	return kws
}

// randomQueries mixes matching keywords, misses and phrases.
func randomQueries(rng *rand.Rand, kws []string, n int) []string {
	qs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(4)
		parts := make([]string, 0, k)
		for j := 0; j < k; j++ {
			switch rng.Intn(8) {
			case 0:
				parts = append(parts, "zzz-no-such-keyword")
			case 1:
				a, b := kws[rng.Intn(len(kws))], kws[rng.Intn(len(kws))]
				parts = append(parts, fmt.Sprintf("%q", a+" "+b))
			default:
				parts = append(parts, kws[rng.Intn(len(kws))])
			}
		}
		qs = append(qs, joinSpace(parts))
	}
	return qs
}

func joinSpace(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += " "
		}
		s += p
	}
	return s
}

// normResp strips the wall-clock stage timings, which legitimately differ
// between the resident and the block-fetched pipeline; everything else
// must match exactly.
func normResp(r *Response) Response {
	if r == nil {
		return Response{}
	}
	c := *r
	c.Stages = core.StageTimings{}
	return c
}

func diffSearchSurface(t *testing.T, eager, lazy *System, query string, s int) {
	t.Helper()
	re, errE := searchAt(eager, query, s)
	rl, errL := searchAt(lazy, query, s)
	if (errE == nil) != (errL == nil) {
		t.Fatalf("Search(%q,%d) error mismatch: eager=%v lazy=%v", query, s, errE, errL)
	}
	if errE != nil {
		if errE.Error() != errL.Error() {
			t.Fatalf("Search(%q,%d) error text: eager=%v lazy=%v", query, s, errE, errL)
		}
		return
	}
	if !reflect.DeepEqual(normResp(re), normResp(rl)) {
		t.Fatalf("Search(%q,%d) responses differ:\neager: %+v\nlazy:  %+v", query, s, normResp(re), normResp(rl))
	}
	if ie, il := eager.Insights(re, 5), lazy.Insights(rl, 5); !reflect.DeepEqual(ie, il) {
		t.Fatalf("Insights(%q) differ:\neager: %+v\nlazy:  %+v", query, ie, il)
	}
	if fe, fl := Refinements(re, 3), Refinements(rl, 3); !reflect.DeepEqual(fe, fl) {
		t.Fatalf("Refinements(%q) differ: eager=%v lazy=%v", query, fe, fl)
	}
	ke, errE := eager.Search(context.Background(), SearchRequest{Query: ParseQuery(query), S: s, TopK: 5})
	kl, errL := lazy.Search(context.Background(), SearchRequest{Query: ParseQuery(query), S: s, TopK: 5})
	if (errE == nil) != (errL == nil) || (errE == nil && !reflect.DeepEqual(normResp(ke), normResp(kl))) {
		t.Fatalf("top-k Search(%q) differ: eager=%+v/%v lazy=%+v/%v", query, ke, errE, kl, errL)
	}
	be, errE := eager.Search(context.Background(), SearchRequest{Query: ParseQuery(query), BestEffort: true})
	bl, errL := lazy.Search(context.Background(), SearchRequest{Query: ParseQuery(query), BestEffort: true})
	if (errE == nil) != (errL == nil) || (errE == nil && !reflect.DeepEqual(normResp(be), normResp(bl))) {
		t.Fatalf("best-effort Search(%q) differ: eager=%+v/%v lazy=%+v/%v", query, be, errE, bl, errL)
	}
	q := ParseQuery(query)
	if se, sl := eager.SLCA(q), lazy.SLCA(q); !reflect.DeepEqual(se, sl) {
		t.Fatalf("SLCA(%q) differ: eager=%v lazy=%v", query, se, sl)
	}
	if ee, el := eager.ELCA(q), lazy.ELCA(q); !reflect.DeepEqual(ee, el) {
		t.Fatalf("ELCA(%q) differ: eager=%v lazy=%v", query, ee, el)
	}
}

// TestSegmentDifferentialSearch is the central GKS4 property test: over
// randomized corpora and seeded random queries, a segment-backed system
// with a block cache far smaller than the postings (forcing eviction
// churn) answers the entire read surface identically to the eager
// in-memory system it was written from.
func TestSegmentDifferentialSearch(t *testing.T) {
	for name, docs := range segmentCorpora(t) {
		t.Run(name, func(t *testing.T) {
			// 8 KiB cache: a handful of 32 KiB-uncompressed blocks never
			// fit, so every corpus beyond the toy one churns constantly.
			eager, lazy := segmentPair(t, 8<<10, docs...)

			if !reflect.DeepEqual(eager.Stats(), lazy.Stats()) {
				t.Fatalf("Stats differ:\neager: %+v\nlazy:  %+v", eager.Stats(), lazy.Stats())
			}
			if se, sl := eager.Schema(), lazy.Schema(); !reflect.DeepEqual(se, sl) {
				t.Fatalf("Schema differ: eager=%v lazy=%v", se, sl)
			}
			if ke, kl := eager.TopKeywords(10), lazy.TopKeywords(10); !reflect.DeepEqual(ke, kl) {
				t.Fatalf("TopKeywords differ: eager=%v lazy=%v", ke, kl)
			}
			if le, ll := eager.LabelHistogram(), lazy.LabelHistogram(); !reflect.DeepEqual(le, ll) {
				t.Fatalf("LabelHistogram differ: eager=%v lazy=%v", le, ll)
			}
			if de, dl := eager.DepthHistogram(), lazy.DepthHistogram(); !reflect.DeepEqual(de, dl) {
				t.Fatalf("DepthHistogram differ: eager=%v lazy=%v", de, dl)
			}
			if ve, vl := eager.ValidateIndex(), lazy.ValidateIndex(); ve != nil || vl != nil {
				t.Fatalf("ValidateIndex: eager=%v lazy=%v", ve, vl)
			}

			kws := vocab(eager)
			rng := rand.New(rand.NewSource(42))
			for _, query := range randomQueries(rng, kws, 40) {
				s := 1 + rng.Intn(3)
				diffSearchSurface(t, eager, lazy, query, s)
			}
			// Suggestions walk the whole vocabulary (resident directory on
			// the lazy side — no block I/O needed).
			for i := 0; i < 5; i++ {
				kw := kws[rng.Intn(len(kws))] + "x"
				if se, sl := eager.Suggest(kw, 2, 3), lazy.Suggest(kw, 2, 3); !reflect.DeepEqual(se, sl) {
					t.Fatalf("Suggest(%q) differ: eager=%v lazy=%v", kw, se, sl)
				}
			}
			if lazy.Segment().BlockReads() == 0 {
				t.Fatal("segment-backed search performed no block reads — the differential proved nothing")
			}
		})
	}
}

// TestSegmentEvictionMidQueryConcurrent hammers one segment-backed system
// from many goroutines with a cache small enough that blocks one query
// still needs are evicted by its neighbours mid-flight. Run under -race
// by make segment-smoke; the responses must still all match the eager
// oracle.
func TestSegmentEvictionMidQueryConcurrent(t *testing.T) {
	docs := []*Document{
		datagen.SwissProt(datagen.Config{Seed: 5, Scale: 2}),
		datagen.Mondial(datagen.Config{Seed: 6, Scale: 1}),
	}
	// 2 KiB: smaller than a single typical block, so even one query's
	// second block evicts its first.
	eager, lazy := segmentPair(t, 2<<10, docs...)

	kws := vocab(eager)
	rng := rand.New(rand.NewSource(99))
	queries := randomQueries(rng, kws, 24)
	type oracle struct {
		resp Response
		err  string
	}
	want := make([]oracle, len(queries))
	for i, q := range queries {
		r, err := searchAt(eager, q, 2)
		if err != nil {
			want[i] = oracle{err: err.Error()}
			continue
		}
		want[i] = oracle{resp: normResp(r)}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries {
				r, err := searchAt(lazy, q, 2)
				switch {
				case err != nil && want[i].err == "":
					errc <- fmt.Errorf("goroutine %d: Search(%q): unexpected error %v", g, q, err)
				case err == nil && want[i].err != "":
					errc <- fmt.Errorf("goroutine %d: Search(%q): missing error %q", g, q, want[i].err)
				case err == nil && !reflect.DeepEqual(normResp(r), want[i].resp):
					errc <- fmt.Errorf("goroutine %d: Search(%q): response diverged", g, q)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if br, nb := lazy.Segment().BlockReads(), lazy.Segment().NumBlocks(); br <= int64(nb) {
		t.Fatalf("block reads (%d) <= block count (%d): no eviction churn, the cache never overflowed", br, nb)
	}
}

// TestSegmentRewriteStable checks the conversion loop: a segment-backed
// system written back to GKS4 produces byte-identical files (the writer
// is deterministic and the lazy read path streams losslessly), and a
// GKS4 -> GKS3 -> load -> GKS4 loop converges to the same bytes.
func TestSegmentRewriteStable(t *testing.T) {
	docs := []*Document{datagen.SwissProt(datagen.Config{Seed: 1, Scale: 1})}
	eager, lazy := segmentPair(t, 0, docs...)
	dir := t.TempDir()

	again := filepath.Join(dir, "again.gks4")
	if err := lazy.SaveSegmentFile(again); err != nil {
		t.Fatal(err)
	}
	orig := lazy.Segment().Path()
	if !filesEqual(t, orig, again) {
		t.Fatal("re-writing a segment-backed system produced different bytes")
	}

	gks3 := filepath.Join(dir, "down.gksidx")
	if err := lazy.SaveIndexFile(gks3); err != nil {
		t.Fatal(err)
	}
	back, err := LoadIndexFile(gks3)
	if err != nil {
		t.Fatal(err)
	}
	roundtrip := filepath.Join(dir, "roundtrip.gks4")
	if err := back.SaveSegmentFile(roundtrip); err != nil {
		t.Fatal(err)
	}
	if !filesEqual(t, orig, roundtrip) {
		t.Fatal("GKS4 -> GKS3 -> GKS4 did not round-trip byte-identically")
	}
	_ = eager
}

// TestSegmentMutationMaterializes upserts into a segment-backed system
// and diffs the result against the same mutation applied to the eager
// oracle: mutations transparently materialize the lazy index first.
func TestSegmentMutationMaterializes(t *testing.T) {
	docs := []*Document{datagen.SwissProt(datagen.Config{Seed: 2, Scale: 1})}
	eager, lazy := segmentPair(t, 4<<10, docs...)

	extra, err := ParseDocumentString(universityXML, "university.xml")
	if err != nil {
		t.Fatal(err)
	}
	extra2, err := ParseDocumentString(universityXML, "university.xml")
	if err != nil {
		t.Fatal(err)
	}
	nextE, _, err := Upsert(eager, extra)
	if err != nil {
		t.Fatal(err)
	}
	nextL, _, err := Upsert(lazy, extra2)
	if err != nil {
		t.Fatal(err)
	}
	eager, lazy = nextE.(*System), nextL.(*System)
	if !reflect.DeepEqual(eager.Stats(), lazy.Stats()) {
		t.Fatalf("post-mutation Stats differ:\neager: %+v\nlazy:  %+v", eager.Stats(), lazy.Stats())
	}
	for _, q := range []string{"karen mike john", "databases", "karen algorithms"} {
		diffSearchSurface(t, eager, lazy, q, 2)
	}

	// The mutated (materialized) successor must persist in both formats —
	// this is gksd's checkpoint path after an ingest on a segment-served
	// system, and the segment writer's strict codec would reject any
	// posting-list invariant the mutation broke.
	dir := t.TempDir()
	for name, save := range map[string]func(string) error{
		"gks4": lazy.SaveSegmentFile,
		"gks3": lazy.SaveIndexFile,
	} {
		path := filepath.Join(dir, "mutated."+name)
		if err := save(path); err != nil {
			t.Fatalf("saving mutated segment-backed system as %s: %v", name, err)
		}
		re, err := LoadIndexFileOpts(path, SegmentOptions{})
		if err != nil {
			t.Fatalf("reloading mutated %s: %v", name, err)
		}
		diffSearchSurface(t, eager, re, "karen mike john", 2)
		if err := re.CloseIndex(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadIndexStatsBothFormats checks ReadIndexStats against the stats
// of the system that wrote each file: GKS3 snapshots — including a packed
// one and the post-mutation checkpoint a gksd writes — load in full, a
// GKS4 segment reads its footer only. A damaged snapshot fails with the
// typed corruption error naming the file.
func TestReadIndexStatsBothFormats(t *testing.T) {
	sys, err := IndexDocuments(datagen.Mondial(datagen.Config{Seed: 4, Scale: 1}))
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := sys.Packed().Upsert(ingestDoc(t, "extra.xml", "apple", "pear"))
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := next.(*System)
	dir := t.TempDir()
	cases := []struct {
		file string
		save func(string) error
		want IndexStats
	}{
		{"m.gksidx", sys.SaveIndexFile, sys.Stats()},
		{"packed.gksidx", sys.Packed().SaveIndexFile, sys.Stats()},
		{"checkpoint.gksidx", checkpoint.SaveIndexFile, checkpoint.Stats()},
		{"m.gks4", sys.SaveSegmentFile, sys.Stats()},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.file)
		if err := c.save(path); err != nil {
			t.Fatal(err)
		}
		st, err := ReadIndexStats(path)
		if err != nil {
			t.Fatalf("ReadIndexStats(%s): %v", path, err)
		}
		if !reflect.DeepEqual(st, c.want) {
			t.Fatalf("ReadIndexStats(%s) = %+v, want %+v", path, st, c.want)
		}
	}

	good, err := os.ReadFile(filepath.Join(dir, "packed.gksidx"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{5, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		path := filepath.Join(dir, fmt.Sprintf("flipped-%d.gksidx", pos))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadIndexStats(path)
		if !errors.Is(err, ErrCorruptIndex) || !strings.Contains(fmt.Sprint(err), path) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorruptIndex naming %s", pos, err, path)
		}
	}
}

func filesEqual(t *testing.T, a, b string) bool {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}
