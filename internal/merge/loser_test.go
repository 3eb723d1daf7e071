package merge

import (
	"context"
	"math/rand"
	"testing"
)

// randomLists builds k sorted, deduped posting lists with geometric-ish
// gaps; emptyEvery > 0 makes every emptyEvery-th list empty to exercise the
// non-empty-list dispatch in MergeInto.
func randomLists(rng *rand.Rand, k, maxLen, emptyEvery int) [][]int32 {
	lists := make([][]int32, k)
	for i := range lists {
		if emptyEvery > 0 && i%emptyEvery == 0 {
			lists[i] = nil
			continue
		}
		n := rng.Intn(maxLen + 1)
		cur := int32(rng.Intn(4))
		l := make([]int32, 0, n)
		for j := 0; j < n; j++ {
			l = append(l, cur)
			cur += int32(1 + rng.Intn(7))
		}
		lists[i] = l
	}
	return lists
}

// TestMergeMatchesHeap is the differential oracle: the loser tree (and its
// one- and two-list fast paths) must produce output identical to the
// original container/heap merge across random list shapes.
func TestMergeMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(17) // 0..16 lists: hits empty, single, two-list, and tree paths
		emptyEvery := 0
		if trial%3 == 0 {
			emptyEvery = 1 + rng.Intn(3)
		}
		lists := randomLists(rng, k, 60, emptyEvery)
		want := MergeHeap(lists)
		got := Merge(lists)
		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d): len = %d, want %d", trial, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (k=%d): entry %d = %v, want %v", trial, k, i, got[i], want[i])
			}
		}
	}
}

// TestMergeSharedOrdinals pins tie-breaking: when several lists contain the
// same ordinal, entries must come out in keyword order.
func TestMergeSharedOrdinals(t *testing.T) {
	shared := []int32{3, 7, 7, 9} // note: lists are normally deduped, but the merge must not rely on it
	lists := [][]int32{shared, {1, 7, 12}, nil, shared, {7}}
	want := MergeHeap(lists)
	got := Merge(lists)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMergeIntoReusesBuffer proves the steady-state merge is
// allocation-free once the caller's buffer has grown to fit.
func TestMergeIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 5, 9} {
		lists := randomLists(rng, k, 200, 0)
		var out Output
		if err := MergeInto(context.Background(), lists, 1, Records{}, &out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := MergeInto(context.Background(), lists, 1, Records{}, &out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("k=%d: MergeInto with warm buffer allocated %.0f times per run", k, allocs)
		}
	}
}

// TestMergeCtxCancelled checks every dispatch path observes a
// pre-cancelled context.
func TestMergeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{2, 8} {
		// Long lists so the cancellation watermark is crossed mid-merge.
		lists := randomLists(rng, k, 3*ctxCheckInterval, 0)
		if _, err := MergeCtx(ctx, lists); err != context.Canceled {
			t.Errorf("k=%d: err = %v, want context.Canceled", k, err)
		}
	}
}

// TestGallop pins the probe/binary-search boundary arithmetic.
func TestGallop(t *testing.T) {
	list := []int32{1, 2, 2, 3, 5, 8, 8, 8, 13, 21}
	cases := []struct {
		from      int
		bound     int32
		inclusive bool
		want      int
	}{
		{0, 2, true, 3},    // run of values <= 2
		{0, 2, false, 1},   // values < 2
		{4, 8, true, 8},    // all the 8s
		{4, 8, false, 5},   // just the 5
		{0, 100, true, 10}, // whole list
		{9, 21, true, 10},  // last element only
	}
	for _, c := range cases {
		if got := gallop(list, c.from, c.bound, c.inclusive); got != c.want {
			t.Errorf("gallop(from=%d, bound=%d, inclusive=%v) = %d, want %d",
				c.from, c.bound, c.inclusive, got, c.want)
		}
	}
}

func BenchmarkMergeLoserTree(b *testing.B) {
	lists := synthLists(8, 5000)
	var out Output
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := MergeInto(context.Background(), lists, 1, Records{}, &out); err != nil || len(out.SL) != 40000 {
			b.Fatal("bad merge")
		}
	}
}

func BenchmarkMergeHeapBaseline(b *testing.B) {
	lists := synthLists(8, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := MergeHeap(lists); len(got) != 40000 {
			b.Fatal("bad merge")
		}
	}
}

func BenchmarkMergeTwoGalloping(b *testing.B) {
	lists := synthLists(2, 20000)
	var out Output
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := MergeInto(context.Background(), lists, 1, Records{}, &out); err != nil || len(out.SL) != 40000 {
			b.Fatal("bad merge")
		}
	}
}
