package merge

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// randomRecords cuts [0, end) into records of one to eight ordinals.
func randomRecords(rng *rand.Rand, end int32) Records {
	r := Records{End: end}
	for ord := int32(0); ord < end; ord += 1 + int32(rng.Intn(8)) {
		r.Starts = append(r.Starts, ord)
	}
	return r
}

// recordOf is the brute-force record lookup: the last start at or before
// ord.
func recordOf(r Records, ord int32) int {
	k := 0
	for k+1 < len(r.Starts) && r.Starts[k+1] <= ord {
		k++
	}
	return k
}

// filterOracle is what the threshold merge must produce when it filters:
// the whole merge with the entries of records holding fewer than s
// distinct keywords dropped, the records holding an entry of a driving
// list and the records kept.
func filterOracle(lists [][]int32, s int, r Records, drivers []uint8) (sl []Entry, touched, qualified int) {
	masks := map[int]uint64{}
	for _, e := range MergeHeap(lists) {
		masks[recordOf(r, e.Ord)] |= e.Mask()
	}
	driven := map[int]bool{}
	for _, kw := range drivers {
		for _, ord := range lists[kw] {
			driven[recordOf(r, ord)] = true
		}
	}
	for _, e := range MergeHeap(lists) {
		k := recordOf(r, e.Ord)
		if bits.OnesCount64(masks[k]) >= s {
			sl = append(sl, e)
		}
	}
	for k := range masks {
		if bits.OnesCount64(masks[k]) >= s {
			qualified++
		}
	}
	return sl, len(driven), qualified
}

// TestThresholdMergeMatchesFilter holds MergeInto at every threshold
// against the heap merge: unfiltered it is the whole merge; filtered it is
// the whole merge less the records with fewer than s distinct keywords,
// with the oracle's record counts.
func TestThresholdMergeMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var out Output
	filtered := 0
	for trial := 0; trial < 400; trial++ {
		end := int32(20 + rng.Intn(400))
		recs := randomRecords(rng, end)
		n := 1 + rng.Intn(6)
		lists := make([][]int32, n)
		for kw := range lists {
			density := rng.Float64() * 0.3
			for ord := int32(0); ord < end; ord++ {
				if rng.Float64() < density {
					lists[kw] = append(lists[kw], ord)
				}
			}
		}
		for s := 1; s <= n; s++ {
			if err := MergeInto(context.Background(), lists, s, recs, &out); err != nil {
				t.Fatal(err)
			}
			var order [MaxKeywords]uint8
			wantFiltered := filters(lists, s, &order)
			if out.Filtered != wantFiltered {
				t.Fatalf("trial %d s=%d: filtered %v, rule %v", trial, s, out.Filtered, wantFiltered)
			}
			if s == n && n >= 2 && !out.Filtered {
				t.Fatalf("trial %d: the filter must run at s = |Q| = %d", trial, n)
			}
			if !out.Filtered {
				if want := MergeHeap(lists); !slices.Equal(out.SL, want) {
					t.Fatalf("trial %d s=%d: unfiltered merge differs from the heap merge", trial, s)
				}
				if out.Touched != 0 || out.Qualified != 0 {
					t.Fatalf("trial %d s=%d: unfiltered merge reports records %+v", trial, s, out)
				}
				continue
			}
			filtered++
			sl, touched, qualified := filterOracle(lists, s, recs, order[:n-s+1])
			if !slices.Equal(out.SL, sl) {
				t.Fatalf("trial %d s=%d: filtered S_L %v, oracle %v", trial, s, out.SL, sl)
			}
			if out.Touched != touched || out.Qualified != qualified {
				t.Fatalf("trial %d s=%d: touched/qualified %d/%d, oracle %d/%d", trial, s, out.Touched, out.Qualified, touched, qualified)
			}
		}
	}
	if filtered < 400 {
		t.Fatalf("only %d filtered merges", filtered)
	}
}

// TestThresholdRule pins when the filter runs: exactly when s ≥ 2 and
// 2s > n, whatever the list lengths, so always at s = |Q| ≥ 2 and never at
// s = 1 or at s = 2 of eight lists (Figure 8's shape), not even when one
// list holds nearly every entry. When it runs, the keyword order puts the
// shortest lists first, ties by keyword, so the n − s + 1 drivers lead.
func TestThresholdRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var order [MaxKeywords]uint8
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		lists := randomLists(rng, n, 50, 3)
		for s := 0; s <= n+1; s++ {
			want := s >= 2 && 2*s > n && s <= n
			if got := filters(lists, s, &order); got != want {
				t.Fatalf("trial %d: filters(n=%d, s=%d) = %v (lengths %v)", trial, n, s, got, lengths(lists))
			}
			if !want {
				continue
			}
			for i := 1; i < n; i++ {
				a, b := order[i-1], order[i]
				if len(lists[a]) > len(lists[b]) || len(lists[a]) == len(lists[b]) && a > b {
					t.Fatalf("trial %d s=%d: order %v does not sort lengths %v", trial, s, order[:n], lengths(lists))
				}
			}
		}
	}
	eight := make([][]int32, 8)
	for kw := range eight {
		for ord := int32(0); ord < int32(100+10*kw); ord++ {
			eight[kw] = append(eight[kw], ord*3)
		}
	}
	for kw := range eight[1:] {
		eight[1+kw] = eight[1+kw][:1]
	}
	if filters(eight, 2, &order) {
		t.Fatal("filter at n = 8, s = 2 with one dominant list")
	}
	three := [][]int32{eight[0], eight[1], eight[2]}
	if !filters(three, 2, &order) || order[2] != 0 {
		t.Fatalf("no filter at n = 3, s = 2, or the longest list not last (order %v)", order[:3])
	}
}

func lengths(lists [][]int32) []int {
	out := make([]int, len(lists))
	for i, l := range lists {
		out[i] = len(l)
	}
	return out
}

// TestThresholdMergeAllocs: a filtered merge into a warm Output allocates
// nothing.
func TestThresholdMergeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	recs := randomRecords(rng, 5000)
	lists := [][]int32{nil, nil, nil}
	for kw := range lists {
		for ord := int32(0); ord < recs.End; ord += 1 + int32(rng.Intn(4+10*kw)) {
			lists[kw] = append(lists[kw], ord)
		}
	}
	var out Output
	if err := MergeInto(context.Background(), lists, 3, recs, &out); err != nil || !out.Filtered || out.Qualified == 0 {
		t.Fatalf("warm-up: err %v, output %+v", err, out.Qualified)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := MergeInto(context.Background(), lists, 3, recs, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("filtered MergeInto with a warm output allocated %.0f times per run", allocs)
	}
}

// TestThresholdMergeCtx: a cancelled context stops the filter loop, even
// when no record qualifies and nothing is merged.
func TestThresholdMergeCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs := Records{End: 4 * ctxCheckInterval}
	for ord := int32(0); ord < recs.End; ord++ {
		recs.Starts = append(recs.Starts, ord)
	}
	var even, odd []int32
	for ord := int32(0); ord < recs.End; ord += 2 {
		even, odd = append(even, ord), append(odd, ord+1)
	}
	var out Output
	if err := MergeInto(ctx, [][]int32{even, odd}, 2, recs, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := MergeInto(context.Background(), [][]int32{even, odd}, 2, recs, &out); err != nil || len(out.SL) != 0 || out.Touched != int(recs.End)/2 {
		t.Fatalf("uncancelled: err %v, |S_L| %d, touched %d", err, len(out.SL), out.Touched)
	}
}

// TestTooManyLists: more lists than keyword masks hold is a typed error.
func TestTooManyLists(t *testing.T) {
	lists := make([][]int32, MaxKeywords+1)
	var out Output
	if err := MergeInto(context.Background(), lists, 1, Records{}, &out); !errors.Is(err, ErrTooManyLists) {
		t.Fatalf("err = %v, want ErrTooManyLists", err)
	}
	if Merge(lists) != nil {
		t.Fatal("Merge of too many lists must be nil")
	}
}

// TestPostingPastRecords: a posting ordinal past the last record's end is
// an error, not an endless loop.
func TestPostingPastRecords(t *testing.T) {
	recs := Records{Starts: []int32{0, 3}, End: 5}
	var out Output
	if err := MergeInto(context.Background(), [][]int32{{1, 9}, {1, 2, 9}}, 2, recs, &out); err == nil {
		t.Fatal("no error for ordinal 9 past the node table's 5")
	}
}
