package server

import (
	"context"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	gks "repro"
	"repro/internal/datagen"
)

// figurePools are the keyword pools of the paper's Figure 8 analog on NASA
// and SwissProt: sixteen keywords each, frequent element names first.
var figurePools = [][]string{
	{"author", "title", "reference", "year", "lastname", "dataset", "quasar", "pulsar", "nebula", "supernova", "galaxy", "cluster", "comet", "asteroid", "magnetar", "exoplanet"},
	{"Entry", "Author", "Keyword", "Descr", "Ref", "Features", "Kinase", "Hydrolase", "Helicase", "Transferase", "Bacteria", "Eukaryota", "Zinc", "Membrane", "Signal", "Protease"},
}

// figureQueries are the ten Figure 8 sliding-window queries: per pool the
// n = 8 windows at shifts 0, 2, …, 8.
func figureQueries() []string {
	var qs []string
	for _, pool := range figurePools {
		for shift := 0; shift+8 <= len(pool); shift += 2 {
			qs = append(qs, strings.Join(pool[shift:shift+8], " "))
		}
	}
	return qs
}

// figureSystem indexes the NASA and SwissProt analogs (datagen, seed 42) at
// scale — at 10, the corpus of the rank_heavy workload.
func figureSystem(tb testing.TB, scale int) *gks.System {
	tb.Helper()
	cfg := datagen.Config{Seed: 42, Scale: scale}
	sys, err := gks.IndexDocuments(datagen.NASA(cfg), datagen.SwissProt(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestSearchTopKBodiesMatchFullResponse: /search asks the engine for top
// results only, yet every body is the one the parent rendered from the
// whole response — buildSearchJSON over Search's answer with TopK 0 (at
// s = 0, best effort), with total = len(Results) — for every
// top around both ends of |R| and maxTop, cached (fill and hit) or not, on
// every kind of served system.
func TestSearchTopKBodiesMatchFullResponse(t *testing.T) {
	sys := figureSystem(t, 1)
	cfg := datagen.Config{Seed: 42, Scale: 1}
	sharded, err := gks.IndexDocumentsSharded(3, datagen.NASA(cfg), datagen.SwissProt(cfg))
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(t.TempDir(), "corpus.gks4")
	if err := sys.SaveSegmentFile(segPath); err != nil {
		t.Fatal(err)
	}
	segment, err := gks.LoadIndexFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { segment.CloseIndex() })
	systems := []struct {
		name string
		sys  gks.Searcher
	}{{"single", sys}, {"sharded", sharded}, {"packed", sys.Packed()}, {"segment", segment}}

	// |R| from 0 to ≈ 1 900 at scale 1: above and below maxTop, above and
	// below 10, empty.
	fig := figureQueries()
	queries := []string{fig[0], fig[3], fig[9], "Kinase Zinc", "quasar"}
	for _, sy := range systems {
		want := map[string]string{} // URL -> the parent's body
		for _, q := range queries {
			for _, s := range []int{0, 1, 2} {
				full, err := sy.sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery(q), S: s, BestEffort: s == 0})
				if err != nil {
					t.Fatal(err)
				}
				n := len(full.Results)
				for _, k := range []int{0, 1, 10, n - 1, n, n + 1, maxTop} {
					out := buildSearchJSON(full, min(k, maxTop))
					out.Total = n
					body, err := encodeJSON(out)
					if err != nil {
						t.Fatal(err)
					}
					want["/search?q="+url.QueryEscape(q)+"&s="+strconv.Itoa(s)+"&top="+strconv.Itoa(max(k, 0))] = string(body)
				}
			}
		}
		for _, capacity := range []int{0, 64} {
			h := NewWithCache(sy.sys, capacity)
			for u, body := range want {
				for ask := 0; ask < 2; ask++ { // with the cache on, a fill then a hit
					if code, got := get(t, h, u); code != 200 || got != body {
						t.Fatalf("%s cache=%d %s (ask %d): %d\n%s\nwant:\n%s", sy.name, capacity, u, ask, code, got, body)
					}
				}
			}
		}
	}
}

// BenchmarkHandlerSearchTop10 drives the rank_heavy shape through the
// handler, cache off: the ten Figure 8 sliding-window queries at s = 2 on
// NASA+SwissProt at scale 10, top=10 each.
func BenchmarkHandlerSearchTop10(b *testing.B) {
	h := New(figureSystem(b, 10))
	var urls []string
	for _, q := range figureQueries() {
		urls = append(urls, "/search?q="+url.QueryEscape(q)+"&s=2&top=10")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", urls[i%len(urls)], nil))
		if rec.Code != 200 {
			b.Fatalf("%s: %d %s", urls[i%len(urls)], rec.Code, rec.Body)
		}
	}
}
