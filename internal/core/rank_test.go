package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// Tests of the one-sweep rank stage (rankAll). The reference is Scorer
// (scorer_test.go) through SearchBaseline: requireMatchesBaseline compares
// every rank with math.Float64bits.

// TestRankSweepHandCases pins the shapes the sweep's terminal bookkeeping has
// to get right; each case also states one rank worked by hand.
func TestRankSweepHandCases(t *testing.T) {
	E, T, ET := xmltree.E, xmltree.T, xmltree.ET

	// A chain 32 levels deep of three-child nodes, keywords at the bottom and
	// at levels 10 and 20: nested candidates whose terminals sit below ≥ 30
	// divisions, where one division out of order would show in the low bits.
	chain := E("end", ET("v", "pear"), ET("v", "plum"))
	for level := 31; level >= 0; level-- {
		link := E("l", ET("pad", "zzz"), ET("pad", "zzz"), chain)
		if level == 10 || level == 20 {
			link.Append(ET("m", "fig"))
		}
		chain = link
	}

	cases := []struct {
		name      string
		opts      index.Options
		root      *xmltree.Node
		query     []string
		s         int
		wantLabel string  // the first result at threshold s
		wantRank  float64 // its rank, worked by hand
	}{
		{
			// top's apple terminals are a/x and b/x: equal depth, one in each
			// of two sibling candidates that close before top does.
			name: "equal-depth terminals split across sibling candidates",
			root: E("root", E("top",
				E("a", ET("x", "apple"), ET("y", "pear")),
				E("b", ET("x", "apple"), ET("y", "plum")),
				ET("z", "fig"))),
			query: []string{"apple", "pear", "plum", "fig"}, s: 2,
			wantLabel: "top", wantRank: 4*(4.0/2/3) + 4.0/3,
		},
		{
			// box holds apple in its own text: that instance is the terminal
			// and takes the whole potential; the deeper apple is shadowed.
			name: "shallowest occurrence is the candidate itself",
			root: E("root", E("box", T("apple"), ET("v", "pear"),
				E("w", ET("u", "apple")))),
			query: []string{"apple", "pear"}, s: 2,
			wantLabel: "box", wantRank: 2 + 2.0/3,
		},
		{
			// Empty elements matched by name have no children: as terminals
			// they end a chain, as s=1 candidates they are their own terminal.
			name: "child-count-0 nodes",
			opts: index.DefaultOptions(),
			root: E("root", E("shelf", E("apple"), E("pear"),
				E("crate", E("apple"), E("plum")))),
			query: []string{"apple", "pear", "plum"}, s: 2,
			wantLabel: "shelf", wantRank: 3.0/3 + 3.0/3 + 3.0/2/3,
		},
		{
			name:  "depth >= 30 chain",
			root:  E("root", E("top", ET("k", "apple"), chain)),
			query: []string{"apple", "pear", "plum", "fig"}, s: 4,
			// apple 4/2; fig at level 10 of the chain, 11 links below top
			// (each link has 3 children, the fig links 4); pear and plum
			// are out of float64 reach of those two.
			wantLabel: "top", wantRank: 4.0/2 + 4.0/4/math.Pow(3, 10)/2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix, err := index.BuildDocument(xmltree.NewDocument("hand.xml", 0, c.root), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			q := NewQuery(c.query...)
			requireMatchesBaseline(t, c.name, ix, q)
			resp, err := NewEngine(ix).Search(q, c.s)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) == 0 || resp.Results[0].Label != c.wantLabel {
				t.Fatalf("response = %v, want %s first", resultLabels(resp), c.wantLabel)
			}
			if got := resp.Results[0].Rank; math.Abs(got-c.wantRank) > 1e-12 {
				t.Errorf("rank(%s) = %v, want %v", c.wantLabel, got, c.wantRank)
			}
		})
	}
}

// TestRankUnchangedByWrapping is the §7.6 metamorphic test: rank is a
// function of the subtree, so putting a document below extra single-child
// ancestors changes no bit of any rank. (The response itself may change —
// the old root becomes a legal result and a lift target — so ranks are
// compared on the nodes both responses hold.)
func TestRankUnchangedByWrapping(t *testing.T) {
	const wrappers = 3 // extra ancestors, so ordinals shift by this much
	q := NewQuery("apple", "pear", "plum", "fig")
	compared := 0
	for trial := 0; trial < 60; trial++ {
		build := func(wrap bool) *Engine {
			doc := randomTree(rand.New(rand.NewSource(int64(trial))), trial%2 == 0)
			if wrap {
				root := doc.Root
				for i := 0; i < wrappers; i++ {
					root = xmltree.E("wrap", root)
				}
				doc = xmltree.NewDocument("wrapped.xml", 0, root)
			}
			ix, err := index.BuildDocument(doc, index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix)
		}
		plain, wrapped := build(false), build(true)
		for s := 1; s <= q.Len(); s++ {
			base, err := plain.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			ranks := map[int32]float64{}
			for _, r := range base.Results {
				ranks[r.Ord] = r.Rank
			}
			deep, err := wrapped.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range deep.Results {
				want, ok := ranks[r.Ord-wrappers]
				if !ok {
					continue
				}
				compared++
				if math.Float64bits(r.Rank) != math.Float64bits(want) {
					t.Fatalf("trial %d s=%d: rank of %s is %v below %d wrappers, %v without",
						trial, s, r.ID, r.Rank, wrappers, want)
				}
			}
		}
	}
	if compared < 500 {
		t.Fatalf("only %d ranks compared: the wrapped and plain responses barely overlap", compared)
	}
}

// rankStageCtx is a context that reads as cancelled only when it is polled
// from inside the rank stage.
type rankStageCtx struct{ context.Context }

func (c rankStageCtx) Err() error {
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".rankAll") {
			return context.Canceled
		}
		if !more {
			return nil
		}
	}
}

// TestRankStagePollsContext: every ranked request — Explain, which used to
// rank without a poll, included — stops inside the rank stage when the
// context is cancelled there.
func TestRankStagePollsContext(t *testing.T) {
	eng := allocBenchEngine(t, 400)
	q := NewQuery("alpha", "beta", "gamma")
	ctx := rankStageCtx{context.Background()}
	calls := map[string]func() (any, error){
		"SearchCtx":       func() (any, error) { return eng.SearchCtx(ctx, SearchRequest{Query: q, S: 2}) },
		"SearchCtx top-k": func() (any, error) { return eng.SearchCtx(ctx, SearchRequest{Query: q, S: 2, TopK: 10}) },
		"Explain":         func() (any, error) { return eng.Explain(ctx, q, 2) },
		"SearchCtx best effort": func() (any, error) {
			return eng.SearchCtx(ctx, SearchRequest{Query: q, BestEffort: true})
		},
		"SearchCtx best-effort top-k": func() (any, error) {
			return eng.SearchCtx(ctx, SearchRequest{Query: q, BestEffort: true, TopK: 10})
		},
	}
	for name, call := range calls {
		if _, err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled from the rank stage", name, err)
		}
	}
	// The probes of a best-effort scan rank nothing, so they never poll from
	// the rank stage.
	if ok, err := eng.HasResults(ctx, q, 2); err != nil || !ok {
		t.Errorf("HasResults = (%v, %v), want (true, nil)", ok, err)
	}
	// The arenas the cancelled searches returned to the shared pool are clean.
	got, err := eng.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.SearchBaseline(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResponse(t, "after cancellation", got, want)
}

// TestBestEffortRanksOnce: the threshold scan probes with the candidate
// stages and ranks only the threshold it settles on.
func TestBestEffortRanksOnce(t *testing.T) {
	q := NewQuery("a", "b", "c", "d", "e", "f", "g", "h")
	for boundary := 0; boundary <= q.Len(); boundary++ {
		var probed, searched []int
		resp, err := BestEffort(context.Background(), q,
			func(_ context.Context, s int) (bool, error) {
				probed = append(probed, s)
				return s <= boundary, nil
			},
			func(_ context.Context, s int) (*Response, error) {
				searched = append(searched, s)
				return &Response{Query: q, S: s}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		want := max(boundary, 1) // nothing matches: the empty R(1) is the answer
		if resp.S != want || fmt.Sprint(searched) != fmt.Sprint([]int{want}) {
			t.Errorf("boundary %d: settled on s=%d after searching %v, want one search at %d",
				boundary, resp.S, searched, want)
		}
		if len(probed) > 3 { // log2 |Q|
			t.Errorf("boundary %d: %d probes %v, want at most 3", boundary, len(probed), probed)
		}
	}
}
