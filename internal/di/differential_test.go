package di_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/di"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// discoverEager is DiscoverIndexed as it was before the §6.2 exclusion moved
// behind the ranking: every occurrence of every value is tokenized and
// stemmed while accumulating, the survivors are sorted, and the first m are
// kept. It is the oracle of TestLateExclusionMatchesEager.
func discoverEager(ix *index.Index, resp *core.Response, m int) []di.Insight {
	queryTokens := resp.Query.TokenSet()
	type key struct{ path, value string }
	acc := make(map[key]*di.Insight)
	for _, r := range resp.Results {
		if !r.IsEntity {
			continue
		}
	attrs:
		for _, attr := range ix.ValueNodesUnder(r.Ord) {
			info := ix.Info(attr)
			for _, tok := range textproc.Tokenize(info.Value) {
				if queryTokens[textproc.Stem(tok)] {
					continue attrs
				}
			}
			path := ix.PathLabels(r.Ord, attr)
			k := key{path: strings.Join(path, "/"), value: info.Value}
			in := acc[k]
			if in == nil {
				in = &di.Insight{Value: info.Value, Path: path, Example: info.ID}
				acc[k] = in
			}
			in.Weight += r.Rank
			in.Count++
		}
	}
	out := make([]di.Insight, 0, len(acc))
	for _, in := range acc {
		out = append(out, *in)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Value != out[j].Value {
			return out[i].Value < out[j].Value
		}
		return strings.Join(out[i].Path, "/") < strings.Join(out[j].Path, "/")
	})
	if m > 0 && len(out) > m {
		out = out[:m]
	}
	return out
}

var diffWords = []string{"apple", "pear", "plum", "fig", "cherry", "mango", "quince", "grape"}

// diffCorpus builds 1..8 documents of entities whose attribute values are
// one or two corpus words — so a value may hold a query keyword next to
// another word, or stem to one ("apples") — and repeat across entities, so
// weights aggregate and tie.
func diffCorpus(rng *rand.Rand) []*xmltree.Document {
	value := func() string {
		v := diffWords[rng.Intn(len(diffWords))]
		switch rng.Intn(4) {
		case 0:
			v += " " + diffWords[rng.Intn(len(diffWords))]
		case 1:
			v += "s"
		}
		return v
	}
	docs := make([]*xmltree.Document, 1+rng.Intn(8))
	for d := range docs {
		root := xmltree.E("root")
		for e, entities := 0, 1+rng.Intn(5); e < entities; e++ {
			ent := xmltree.E("entity", xmltree.ET(fmt.Sprintf("attr%d", rng.Intn(3)), value()))
			for i, members := 0, 2+rng.Intn(3); i < members; i++ {
				ent.Append(xmltree.E("member", xmltree.ET("leaf", value())))
			}
			root.Append(ent)
		}
		docs[d] = xmltree.NewDocument(fmt.Sprintf("doc-%03d.xml", d), 0, root)
	}
	return docs
}

// TestLateExclusionMatchesEager: excluding query keywords after ranking
// (DiscoverIndexed) returns exactly what excluding them per occurrence
// (discoverEager) returns — values, paths, float weights, counts, example
// nodes, order — on random corpora, for m below, at and above the number of
// distinct values, through the single-index analyzer and through a shard
// set. The trials must include one whose highest-ranked value holds a query
// keyword, the case where the late walk has to skip past the head.
func TestLateExclusionMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	excludedFirst, nonEmpty := 0, 0
	for trial := 0; trial < 80; trial++ {
		docs := diffCorpus(rng)
		repo := &xmltree.Repository{}
		for _, d := range docs {
			repo.Add(d)
		}
		ix, err := index.Build(repo, index.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(ix)
		set, err := shard.Build(docs, shard.DefaultOptions(1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		terms := append([]string(nil), diffWords...)
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		q := core.NewQuery(terms[:1+rng.Intn(3)]...)
		for s := 1; s <= q.Len(); s++ {
			resp, err := eng.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := set.Search(context.Background(), core.SearchRequest{Query: q, S: s})
			if err != nil {
				t.Fatal(err)
			}
			all := discoverEager(ix, resp, 0)
			if len(all) > 0 {
				nonEmpty++
			}
			// The ranked list with nothing excluded: is its head a value the
			// exclusion removes?
			bare := *resp
			bare.Query = core.NewQuery("absent")
			if ranked := discoverEager(ix, &bare, 1); len(ranked) == 1 &&
				(len(all) == 0 || ranked[0].String() != all[0].String()) {
				excludedFirst++
			}
			for _, m := range []int{0, 1, 5, len(all), len(all) + 3} {
				label := fmt.Sprintf("trial %d %v s=%d m=%d", trial, q, s, m)
				want := discoverEager(ix, resp, m)
				if got := di.New(eng).Discover(resp, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: single index:\n got %+v\nwant %+v", label, got, want)
				}
				if got := set.Insights(sharded, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d shards:\n got %+v\nwant %+v", label, set.NumShards(), got, want)
				}
			}
		}
	}
	if excludedFirst == 0 || nonEmpty == 0 {
		t.Fatalf("the corpora never put a value holding a query keyword first (%d) or never had insights (%d)", excludedFirst, nonEmpty)
	}
	t.Logf("%d responses with insights, %d with an excluded value ranked first", nonEmpty, excludedFirst)
}
