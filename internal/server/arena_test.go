package server

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	gks "repro"
)

// TestArenaSurvivesUpsert: a mutation builds a new generation with a new
// engine, yet its first search draws the query arena the old generation
// released instead of allocating the node-indexed tables (8 B per node)
// again. The boot-sized arena is outgrown once, by the first upsert, and
// regrows with headroom; from the second upsert on the arena fits.
func TestArenaSurvivesUpsert(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	// One P and no GC: the arena the warming search releases stays in the
	// pool slot the next search reads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	req := gks.SearchRequest{Query: gks.ParseQuery("protein organism"), S: 1}
	var next gks.Searcher = figureSystem(t, 1)
	for i := 0; i < 2; i++ {
		if _, err := next.Search(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		var err error
		next, _, err = next.Upsert(gks.BuildDocument(fmt.Sprintf("added-%d.xml", i),
			gks.E("entry", gks.ET("protein", "kinase"), gks.ET("organism", "yeast"))))
		if err != nil {
			t.Fatal(err)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := next.Search(context.Background(), req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total == 0 {
		t.Fatal("the pinned query answers nothing")
	}
	nodes := uint64(next.Stats().ElementNodes)
	if got, tables := after.TotalAlloc-before.TotalAlloc, 8*nodes; got > tables/4 {
		t.Errorf("the first search after an upsert allocated %d B, want well under the %d B of fresh arena tables (%d nodes)",
			got, tables, nodes)
	}
}
