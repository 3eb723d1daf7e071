package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/di"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/xmltree"
)

// referenceIndex builds the cold-rebuild reference for a mutated set: one
// index over the surviving documents with their document ids preserved
// exactly (Repository.Add would renumber; live mutation must not).
func referenceIndex(t *testing.T, docs []*xmltree.Document) (*index.Index, *core.Engine) {
	t.Helper()
	sorted := append([]*xmltree.Document(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DocID < sorted[j].DocID })
	ix, err := index.Build(&xmltree.Repository{Docs: sorted}, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix, core.NewEngine(ix)
}

func TestRouteShardMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := make([]*xmltree.Document, 20)
	for i := range docs {
		docs[i] = randomDoc(rng, fmt.Sprintf("route-%03d.xml", i), false)
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		groups := Partition(docs, DefaultOptions(n))
		for shard, group := range groups {
			for _, d := range group {
				if got := RouteShard(d.Name, n); got != shard {
					t.Fatalf("RouteShard(%q, %d) = %d, but Partition placed it in shard %d",
						d.Name, n, got, shard)
				}
			}
		}
	}
}

// TestLiveMutationEquivalence is the correctness anchor of live ingestion:
// after ANY random interleaving of adds, replaces and deletes, the sharded
// set must be observationally identical — responses with exact rank floats,
// insights, baselines, stats, schema — to a single index cold-rebuilt from
// the surviving documents.
func TestLiveMutationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1723))
	for trial := 0; trial < 12; trial++ {
		docs := randomCorpus(rng)
		set, err := Build(docs, DefaultOptions(1+rng.Intn(5)))
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[string]*xmltree.Document, len(docs))
		for _, d := range docs {
			live[d.Name] = d
		}
		next := len(docs)

		for step := 0; step < 10; step++ {
			names := make([]string, 0, len(live))
			for n := range live {
				names = append(names, n)
			}
			sort.Strings(names)
			switch op := rng.Intn(3); {
			case op == 0 || len(live) == 1: // add
				name := fmt.Sprintf("doc-%03d.xml", next)
				next++
				doc := randomDoc(rng, name, rng.Intn(2) == 0)
				out, replaced, err := set.Upsert(doc)
				if err != nil {
					t.Fatal(err)
				}
				if replaced {
					t.Fatalf("add of fresh name %q reported replaced", name)
				}
				set, live[name] = out.(*Set), doc
			case op == 1: // replace
				name := names[rng.Intn(len(names))]
				doc := randomDoc(rng, name, rng.Intn(2) == 0)
				out, replaced, err := set.Upsert(doc)
				if err != nil {
					t.Fatal(err)
				}
				if !replaced {
					t.Fatalf("replace of live name %q not reported as replaced", name)
				}
				set, live[name] = out.(*Set), doc
			default: // delete
				name := names[rng.Intn(len(names))]
				out, err := set.Remove(name)
				if err != nil {
					t.Fatal(err)
				}
				set = out.(*Set)
				delete(live, name)
			}

			survivors := make([]*xmltree.Document, 0, len(live))
			for _, d := range live {
				survivors = append(survivors, d)
			}
			ix, eng := referenceIndex(t, survivors)
			label := fmt.Sprintf("trial %d step %d (shards=%d, docs=%d)",
				trial, step, set.NumShards(), len(live))

			terms := append([]string(nil), corpusWords...)
			rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
			q := core.NewQuery(terms[:2+rng.Intn(2)]...)
			for s := 1; s <= q.Len(); s++ {
				want, err := eng.Search(q, s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := set.Search(context.Background(), core.SearchRequest{Query: q, S: s})
				if err != nil {
					t.Fatal(err)
				}
				sameResponse(t, fmt.Sprintf("%s s=%d", label, s), want, got)
				sameInsights(t, fmt.Sprintf("%s s=%d insights", label, s),
					di.DiscoverIndexed(func(core.Result) *index.Index { return ix }, want, 5),
					set.Insights(got, 5))
			}
			sameStrings(t, label+" SLCA", singleBaseline(ix, eng, q, lca.SLCA), set.SLCA(q))
			sameStrings(t, label+" ELCA", singleBaseline(ix, eng, q, lca.ELCA), set.ELCA(q))
			if want, got := ix.Stats, set.Stats(); want != got {
				t.Fatalf("%s: stats %+v, want %+v", label, got, want)
			}
			wantEdges, gotEdges := singleSchemaEdges(ix), set.Schema()
			if len(wantEdges) != len(gotEdges) {
				t.Fatalf("%s: %d schema edges, want %d", label, len(gotEdges), len(wantEdges))
			}
			for i := range wantEdges {
				if wantEdges[i] != gotEdges[i] {
					t.Fatalf("%s: schema edge %d = %+v, want %+v", label, i, gotEdges[i], wantEdges[i])
				}
			}
			if err := set.ValidateIndex(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// sameAnswers diffs two sets over a sweep of queries: responses with exact
// rank floats, insights, baselines and stats.
func sameAnswers(t *testing.T, label string, want, got *Set) {
	t.Helper()
	for i := range corpusWords {
		q := core.NewQuery(corpusWords[i], corpusWords[(i+3)%len(corpusWords)], corpusWords[(i+5)%len(corpusWords)])
		for s := 1; s <= q.Len(); s++ {
			w, err := want.Search(context.Background(), core.SearchRequest{Query: q, S: s})
			if err != nil {
				t.Fatal(err)
			}
			g, err := got.Search(context.Background(), core.SearchRequest{Query: q, S: s})
			if err != nil {
				t.Fatal(err)
			}
			sameResponse(t, fmt.Sprintf("%s %v s=%d", label, q, s), w, g)
			sameInsights(t, fmt.Sprintf("%s %v s=%d insights", label, q, s), want.Insights(w, 5), got.Insights(g, 5))
		}
		sameStrings(t, label+" SLCA", want.SLCA(q), got.SLCA(q))
		sameStrings(t, label+" ELCA", want.ELCA(q), got.ELCA(q))
	}
	if want.Stats() != got.Stats() {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats(), want.Stats())
	}
}

// TestRepackedPaysShardDebt: a random sharded upsert/delete history piles
// delta appends and tombstones onto the shards until the set's pack debt —
// its worst shard's — crosses a checkpoint threshold. Repacked then leaves
// no debt and answers every query as the set did before it; a later
// repack touches only the shard a mutation gave debt, and every other
// shard keeps its index and engine.
func TestRepackedPaysShardDebt(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	docs := make([]*xmltree.Document, 8)
	for i := range docs {
		docs[i] = randomDoc(rng, fmt.Sprintf("doc-%03d.xml", i), true)
	}
	set, err := Build(docs, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(docs))
	for i, d := range docs {
		names[i] = d.Name
	}
	const threshold = 0.3
	for step := 0; set.PackDebt() < threshold; step++ {
		if step == 200 {
			t.Fatalf("history never crossed pack debt %.2f (at %.2f)", threshold, set.PackDebt())
		}
		var out Searcher
		switch op := rng.Intn(3); {
		case op == 2 && len(names) > 2:
			i := rng.Intn(len(names))
			out, err = set.Remove(names[i])
			names = append(names[:i], names[i+1:]...)
		case op == 1:
			out, _, err = set.Upsert(randomDoc(rng, names[rng.Intn(len(names))], true))
		default:
			name := fmt.Sprintf("add-%03d.xml", step)
			out, _, err = set.Upsert(randomDoc(rng, name, true))
			names = append(names, name)
		}
		if err != nil {
			t.Fatal(err)
		}
		set = out.(*Set)
	}
	worst := 0.0
	for _, ix := range set.Indexes() {
		worst = max(worst, ix.PackDebt())
	}
	if set.PackDebt() != worst {
		t.Fatalf("set pack debt %.3f, worst shard %.3f", set.PackDebt(), worst)
	}

	repacked := set.Repacked().(*Set)
	if debt := repacked.PackDebt(); debt != 0 {
		t.Fatalf("pack debt %.3f survives Repacked", debt)
	}
	if err := repacked.ValidateIndex(); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "repacked", set, repacked)

	out, _, err := repacked.Upsert(randomDoc(rng, "late.xml", true))
	if err != nil {
		t.Fatal(err)
	}
	mutated := out.(*Set)
	again := mutated.Repacked().(*Set)
	indebted := 0
	for i, ix := range mutated.shards {
		if ix.PackDebt() > 0 {
			indebted++
			continue
		}
		if again.shards[i] != ix || again.engines[i] != mutated.engines[i] {
			t.Fatalf("shard %d had no debt but Repacked replaced its index or engine", i)
		}
	}
	if indebted != 1 || again.PackDebt() != 0 {
		t.Fatalf("one upsert left %d indebted shards; after Repacked the debt is %.3f", indebted, again.PackDebt())
	}
	sameAnswers(t, "repacked again", mutated, again)
}

// TestMutationsAreCopyOnWrite: every mutation leaves the receiver serving
// its old corpus, and shards the mutation never touched share their engine
// with the successor.
func TestMutationsAreCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	docs := make([]*xmltree.Document, 6)
	for i := range docs {
		docs[i] = randomDoc(rng, fmt.Sprintf("cow-%d.xml", i), false)
	}
	set, err := Build(docs, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	statsBefore := set.Stats()
	docBefore := set.NumShards()

	doc := randomDoc(rng, "cow-new.xml", false)
	out, _, err := set.Upsert(doc)
	if err != nil {
		t.Fatal(err)
	}
	next := out.(*Set)
	if set.Stats() != statsBefore || set.NumShards() != docBefore || set.ContainsDoc("cow-new.xml") {
		t.Fatal("Upsert mutated the receiver")
	}
	target := RouteShard("cow-new.xml", set.NumShards())
	for i := range set.shards {
		if i == target {
			if next.engines[i] == set.engines[i] {
				t.Fatalf("target shard %d kept its old engine", i)
			}
			continue
		}
		if next.shards[i] != set.shards[i] || next.engines[i] != set.engines[i] {
			t.Fatalf("untouched shard %d was rebuilt", i)
		}
	}

	del, err := next.Remove("cow-new.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !next.ContainsDoc("cow-new.xml") {
		t.Fatal("Remove mutated the receiver")
	}
	if del.(*Set).ContainsDoc("cow-new.xml") {
		t.Fatal("delete left the document live")
	}
}

func TestWithoutDocumentErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := []*xmltree.Document{
		randomDoc(rng, "e-0.xml", false),
		randomDoc(rng, "e-1.xml", false),
	}
	set, err := Build(docs, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Remove("missing.xml"); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("unknown name: err = %v, want index.ErrNotFound", err)
	}
	one, err := set.Remove("e-0.xml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Remove("e-1.xml"); !errors.Is(err, index.ErrLastDocument) {
		t.Fatalf("deleting the last document: err = %v, want index.ErrLastDocument", err)
	}
}

// TestExplainContextEquivalence: the parallel scatter-based explain must
// produce the same merged response as the single-index engine and record a
// per-shard latency for every shard, like any other fan-out.
func TestExplainContextEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	docs := randomCorpus(rng)
	set, err := Build(docs, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	m := &recordingMetrics{}
	set.SetMetrics(m)
	_, eng := referenceIndex(t, docs)

	want, err := eng.Explain(context.Background(), core.NewQuery("apple", "pear"), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := set.Explain(context.Background(), core.ParseQuery("apple pear"), 1)
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, "explain", want.Response, got.Response)
	if got.SLSize != want.SLSize {
		t.Fatalf("explain SLSize = %d, want %d", got.SLSize, want.SLSize)
	}
	if len(m.observed) != set.NumShards() {
		t.Fatalf("explain observed %d shard latencies, want %d", len(m.observed), set.NumShards())
	}

	// A caller-cancelled explain is an error, never a partial result — even
	// on a set configured to degrade on shard failure.
	set.SetAllowPartial(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := set.Explain(ctx, core.ParseQuery("apple pear"), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled explain returned %v, want context.Canceled", err)
	}
}
