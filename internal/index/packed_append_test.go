package index

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// allocBagDoc builds a small document over a fixed vocabulary so the
// corpus vocabulary — and with it the size of the postings-map clone a
// delta append pays — stays constant as the node table grows.
func allocBagDoc(name string, rng *rand.Rand) *xmltree.Document {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	root := xmltree.E("collection")
	for i := 0; i < 5; i++ {
		entry := xmltree.E("entry")
		entry.Append(xmltree.ET("title", words[rng.Intn(len(words))]+" "+words[rng.Intn(len(words))]))
		entry.Append(xmltree.ET("year", words[rng.Intn(len(words))]))
		root.Append(entry)
	}
	return xmltree.NewDocument(name, 0, root)
}

// TestPackAppendAllocsSublinear pins the tentpole complexity claim: a
// delta append onto a packed index allocates O(document), not O(index).
// Allocation counts are compared between a base and a 4x-larger base —
// the flatten-splice-repack path scales linearly (every node is
// re-materialized and re-packed), so a delta regression shows up as the
// ratio heading toward 4. The chained-append shape makes AllocsPerRun's
// warmup call absorb the one-time lookup-sidecar build, so every measured
// run is a pure delta append; PackCount pins that no measured append fell
// back to a full repack.
func TestPackAppendAllocsSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	build := func(nDocs int, seed int64) *Index {
		rng := rand.New(rand.NewSource(seed))
		repo := &xmltree.Repository{}
		for i := 0; i < nDocs; i++ {
			repo.Add(allocBagDoc(fmt.Sprintf("base-%d", i), rng))
		}
		ix, err := Build(repo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	measure := func(base *Index, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		const runs = 24
		docs := make([]*xmltree.Document, runs+1) // +1 for AllocsPerRun's warmup call
		for i := range docs {
			docs[i] = allocBagDoc(fmt.Sprintf("live-%d", i), rng)
		}
		cur, i := base, 0
		before := PackCount()
		avg := testing.AllocsPerRun(runs, func() {
			next, err := AppendAs(cur, docs[i], cur.NextDocID(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			cur, i = next, i+1
		})
		if d := PackCount() - before; d != 0 {
			t.Fatalf("appends onto the packed base ran packNodes %d time(s); delta path not engaged", d)
		}
		return avg
	}

	small := measure(build(16, 1), 2)
	large := measure(build(64, 3), 4)
	t.Logf("allocs per delta append: base 16 docs = %.1f, base 64 docs = %.1f", small, large)
	// O(document) appends keep the count flat; a generous 2x bound leaves
	// room for map-rehash and slice-doubling noise while still failing
	// hard if anything O(index) sneaks back onto the append path.
	if large > small*2 {
		t.Fatalf("delta append allocations scale with base size: %.1f at 16 docs vs %.1f at 64 docs", small, large)
	}
}
