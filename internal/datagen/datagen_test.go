package datagen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/xmltree"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := DBLP(BibConfig{Config: Config{Seed: 7}})
	b := DBLP(BibConfig{Config: Config{Seed: 7}})
	if a.NodeCount() != b.NodeCount() {
		t.Errorf("same seed produced %d vs %d nodes", a.NodeCount(), b.NodeCount())
	}
	c := DBLP(BibConfig{Config: Config{Seed: 8}})
	if a.NodeCount() == c.NodeCount() {
		t.Log("different seeds produced same node count (possible but unlikely)")
	}
	sizeA, err := xmltree.XMLSize(a)
	if err != nil {
		t.Fatal(err)
	}
	sizeB, err := xmltree.XMLSize(b)
	if err != nil {
		t.Fatal(err)
	}
	if sizeA != sizeB {
		t.Errorf("same seed produced %d vs %d bytes", sizeA, sizeB)
	}
}

func TestScaleGrowsDatasets(t *testing.T) {
	small := Mondial(Config{Seed: 1, Scale: 1})
	big := Mondial(Config{Seed: 1, Scale: 3})
	if big.NodeCount() <= small.NodeCount()*2 {
		t.Errorf("scale 3 (%d nodes) should be ~3x scale 1 (%d nodes)",
			big.NodeCount(), small.NodeCount())
	}
}

func TestDatasetShapes(t *testing.T) {
	cases := []struct {
		name     string
		doc      *xmltree.Document
		minDepth int
	}{
		{"dblp", DBLP(BibConfig{Config: Config{Seed: 1}}), 3},
		{"sigmod", SigmodRecord(BibConfig{Config: Config{Seed: 1}}), 4},
		{"mondial", Mondial(Config{Seed: 1}), 4},
		{"interpro", InterPro(Config{Seed: 1}), 3},
		{"swissprot", SwissProt(Config{Seed: 1}), 3},
		{"protein", ProteinSequence(Config{Seed: 1}), 4},
		{"nasa", NASA(Config{Seed: 1}), 5},
		{"treebank", TreeBank(Config{Seed: 1}), 6},
	}
	for _, c := range cases {
		if got := c.doc.Depth(); got < c.minDepth {
			t.Errorf("%s depth = %d, want >= %d", c.name, got, c.minDepth)
		}
		ix, err := index.BuildDocument(c.doc, index.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ix.Stats.EntityNodes == 0 && c.name != "treebank" {
			t.Errorf("%s has no entity nodes", c.name)
		}
	}
}

func TestPlaysMultiDocument(t *testing.T) {
	repo := Plays(Config{Seed: 5, Scale: 1})
	if len(repo.Docs) != 3 {
		t.Fatalf("plays = %d documents, want 3", len(repo.Docs))
	}
	ix, err := index.Build(repo, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats.Documents != 3 {
		t.Errorf("indexed documents = %d", ix.Stats.Documents)
	}
}

func TestReplicate(t *testing.T) {
	repo := Replicate(func() *xmltree.Document { return SwissProt(Config{Seed: 2}) }, 3)
	if len(repo.Docs) != 3 {
		t.Fatalf("replicate = %d docs", len(repo.Docs))
	}
	if repo.Docs[0].NodeCount() != repo.Docs[2].NodeCount() {
		t.Error("replicas differ")
	}
}

// queryCounts runs a paper query on a built engine and returns GKS result
// counts at s=1 and s=|Q|/2 and the SLCA count.
func queryCounts(t *testing.T, eng *core.Engine, terms []string) (gks1, gksHalf, slcaN, maxKw int) {
	t.Helper()
	q := core.NewQuery(terms...)
	r1, err := eng.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := eng.Search(q, q.Len()/2)
	if err != nil {
		t.Fatal(err)
	}
	// Table 7 reports SLCA = 0 where "the response of an SLCA technique is
	// either null or document root" (§7.3) — roots are not counted.
	for _, ord := range lca.SLCA(eng.Index(), eng.PostingLists(q)) {
		if eng.Index().DepthOf(ord) > 0 {
			slcaN++
		}
	}
	for _, res := range r1.Results {
		if res.KeywordCount > maxKw {
			maxKw = res.KeywordCount
		}
	}
	return len(r1.Results), len(half.Results), slcaN, maxKw
}

func TestPaperDBLPGroundTruth(t *testing.T) {
	doc := PaperDBLP(1)
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)

	for _, pq := range PaperQueries() {
		if pq.Dataset != "dblp" || !pq.Exact {
			continue
		}
		gks1, gksHalf, slcaN, maxKw := queryCounts(t, eng, pq.Terms)
		if gks1 != pq.PaperGKS1 {
			t.Errorf("%s: GKS s=1 = %d, paper %d", pq.ID, gks1, pq.PaperGKS1)
		}
		if pq.PaperGKSHalf >= 0 && gksHalf != pq.PaperGKSHalf {
			t.Errorf("%s: GKS s=|Q|/2 = %d, paper %d", pq.ID, gksHalf, pq.PaperGKSHalf)
		}
		if slcaN != pq.PaperSLCA {
			t.Errorf("%s: SLCA = %d, paper %d", pq.ID, slcaN, pq.PaperSLCA)
		}
		if maxKw != pq.PaperMaxKw {
			t.Errorf("%s: max keywords = %d, paper %d", pq.ID, maxKw, pq.PaperMaxKw)
		}
	}
}

func TestPaperSigmodGroundTruth(t *testing.T) {
	doc := PaperSigmod(1)
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)

	for _, pq := range PaperQueries() {
		if pq.Dataset != "sigmod" || !pq.Exact {
			continue
		}
		gks1, gksHalf, slcaN, maxKw := queryCounts(t, eng, pq.Terms)
		if gks1 != pq.PaperGKS1 {
			t.Errorf("%s: GKS s=1 = %d, paper %d", pq.ID, gks1, pq.PaperGKS1)
		}
		if pq.PaperGKSHalf >= 0 && gksHalf != pq.PaperGKSHalf {
			t.Errorf("%s: GKS s=|Q|/2 = %d, paper %d", pq.ID, gksHalf, pq.PaperGKSHalf)
		}
		if slcaN != pq.PaperSLCA {
			t.Errorf("%s: SLCA = %d, paper %d", pq.ID, slcaN, pq.PaperSLCA)
		}
		if maxKw != pq.PaperMaxKw {
			t.Errorf("%s: max keywords = %d, paper %d", pq.ID, maxKw, pq.PaperMaxKw)
		}
	}
}

func TestMondialQueryShape(t *testing.T) {
	doc := Mondial(Config{Seed: 44})
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	// QM2: Laos is unique, so {Laos country name} has SLCA = 1.
	q := core.NewQuery("Laos", "country", "name")
	slcas := lca.SLCA(ix, eng.PostingLists(q))
	if len(slcas) != 1 {
		t.Errorf("SLCA(QM2) = %d, want 1 (unique Laos)", len(slcas))
	}
	// QM1 shape: GKS(s=1) far exceeds SLCA.
	qm1 := core.NewQuery("country", "Muslim")
	r1, err := eng.Search(qm1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := lca.SLCA(ix, eng.PostingLists(qm1))
	if len(r1.Results) <= len(s) {
		t.Errorf("QM1: GKS s=1 (%d) must exceed SLCA (%d)", len(r1.Results), len(s))
	}
	if len(s) == 0 {
		t.Error("QM1 SLCA must be non-empty (countries with Muslim populations exist)")
	}
}

func TestInterProQueryShape(t *testing.T) {
	doc := InterPro(Config{Seed: 45})
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	q := core.NewQuery("Kringle", "Domain")
	slcas := lca.SLCA(ix, eng.PostingLists(q))
	if len(slcas) != 8 {
		t.Errorf("SLCA(QI1) = %d, want 8 Kringle entries", len(slcas))
	}
	r1, err := eng.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Results) <= len(slcas)*10 {
		t.Errorf("QI1: GKS s=1 (%d) should dwarf SLCA (%d), as in the paper", len(r1.Results), len(slcas))
	}
}

func TestXMarkShape(t *testing.T) {
	doc := XMark(Config{Seed: 8})
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats.EntityNodes == 0 {
		t.Error("xmark has no entity nodes")
	}
	// person, item, open_auction must all classify as entities (name/attr
	// children + repeating siblings at schema positions).
	eng := core.NewEngine(ix)
	resp, err := eng.Search(core.NewQuery("antiques"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Error("category keyword must match")
	}
	if doc.Depth() < 4 {
		t.Errorf("depth = %d", doc.Depth())
	}
}

func TestExample2RankingClaims(t *testing.T) {
	// Example 2 of the paper: of the five joint Buneman–Fan–Weinstein
	// articles, four are the top-4 results and the fifth (with many extra
	// co-authors) still lands in the top 10.
	ix, err := index.BuildDocument(PaperDBLP(1), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	q := core.NewQuery("Peter Buneman", "Wenfei Fan", "Scott Weinstein", "Prithviraj Banerjee")
	resp, err := eng.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 234 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for i := 0; i < 4; i++ {
		if resp.Results[i].KeywordCount != 3 {
			t.Errorf("top-%d result has %d query authors, want 3 (joint article)",
				i+1, resp.Results[i].KeywordCount)
		}
	}
	fifthPos := -1
	for i, r := range resp.Results {
		if i >= 4 && r.KeywordCount == 3 {
			fifthPos = i + 1
			break
		}
	}
	if fifthPos < 5 || fifthPos > 10 {
		t.Errorf("fifth joint article at position %d, want within top 10", fifthPos)
	}
	// "ranked lower due to many co-authors": it must not be in the top 4.
	if fifthPos <= 4 {
		t.Errorf("crowded joint article ranked too high: %d", fifthPos)
	}
}
