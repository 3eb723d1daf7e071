package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// recordingMetrics is a race-safe Metrics sink for fan-out tests.
type recordingMetrics struct {
	mu       sync.Mutex
	observed map[int]int
	partials int
}

func (m *recordingMetrics) ObserveShardSearch(shard int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.observed == nil {
		m.observed = make(map[int]int)
	}
	m.observed[shard]++
}

func (m *recordingMetrics) IncShardPartial() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partials++
}

// failShard returns a scatter run function that searches normally except on
// the given engine, which fails with errBoom.
var errBoom = errors.New("shard exploded")

func failShard(s *Set, bad int) func(context.Context, *core.Engine) (*core.Response, error) {
	q := core.NewQuery("apple", "pear")
	return func(ctx context.Context, eng *core.Engine) (*core.Response, error) {
		if eng == s.engines[bad] {
			return nil, errBoom
		}
		return eng.SearchCtx(ctx, core.SearchRequest{Query: q, S: 1})
	}
}

func TestScatterFailFast(t *testing.T) {
	set := buildTestSet(t, 4)
	m := &recordingMetrics{}
	set.SetMetrics(m)

	_, partial, err := scatterShards(context.Background(), set, failShard(set, 1))
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the shard's own error (not context.Canceled)", err)
	}
	if partial {
		t.Fatal("fail-fast scatter flagged partial")
	}
	if m.partials != 0 {
		t.Fatalf("partial counter moved on a failed query: %d", m.partials)
	}
	// Every shard's latency is still observed, including the failed one.
	if len(m.observed) != set.NumShards() {
		t.Fatalf("observed %d shard latencies, want %d", len(m.observed), set.NumShards())
	}
}

func TestScatterPartialResults(t *testing.T) {
	set := buildTestSet(t, 4)
	m := &recordingMetrics{}
	set.SetMetrics(m)
	set.SetAllowPartial(true)

	resps, partial, err := scatterShards(context.Background(), set, failShard(set, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !partial {
		t.Fatal("degraded scatter not flagged partial")
	}
	if resps[2] != nil {
		t.Fatal("failed shard produced a response")
	}
	alive := 0
	for i, r := range resps {
		if i != 2 && r != nil {
			alive++
		}
	}
	if alive != set.NumShards()-1 {
		t.Fatalf("%d healthy shards answered, want %d", alive, set.NumShards()-1)
	}
	if m.partials != 1 {
		t.Fatalf("partial counter = %d, want 1", m.partials)
	}

	// The merged response carries the flag out to the caller.
	q := core.NewQuery("apple", "pear")
	out := set.gather(q, resps, partial, 0)
	if !out.Partial {
		t.Fatal("gather dropped the partial flag")
	}
}

// TestPartialTopKTotal: with one shard failed under AllowPartial, a top-k
// response's Total is the whole response size of the shards that answered,
// whatever k is, while Results holds the k best of them.
func TestPartialTopKTotal(t *testing.T) {
	set := buildTestSet(t, 4)
	set.SetAllowPartial(true)
	q := core.NewQuery("apple", "pear")
	// The failed shard is the one holding the most results.
	bad, all, most := 0, 0, 0
	for i, eng := range set.engines {
		full, err := eng.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		all += len(full.Results)
		if len(full.Results) > most {
			bad, most = i, len(full.Results)
		}
	}
	answering := all - most
	if answering == 0 || answering == all {
		t.Fatalf("answering shards hold %d of %d results: the failed shard must hold some, the others too", answering, all)
	}
	for _, k := range []int{0, 1, 10, answering - 1, answering, answering + 1} {
		resps, partial, err := scatterShards(context.Background(), set, func(ctx context.Context, eng *core.Engine) (*core.Response, error) {
			if eng == set.engines[bad] {
				return nil, errBoom
			}
			return eng.SearchCtx(ctx, core.SearchRequest{Query: q, S: 1, TopK: k})
		})
		if err != nil {
			t.Fatal(err)
		}
		out := set.gather(q, resps, partial, k)
		wantLen := answering
		if k > 0 {
			wantLen = min(k, answering)
		}
		if !out.Partial || out.Total != answering || len(out.Results) != wantLen {
			t.Fatalf("k=%d: partial=%v total=%d results=%d, want true/%d/%d", k, out.Partial, out.Total, len(out.Results), answering, wantLen)
		}
	}
}

func TestScatterAllShardsFailing(t *testing.T) {
	set := buildTestSet(t, 3)
	set.SetAllowPartial(true)
	_, _, err := scatterShards(context.Background(), set, func(context.Context, *core.Engine) (*core.Response, error) {
		return nil, errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("all-shards-failed scatter returned %v, want the shard error", err)
	}
}

// TestScatterCancelledIsNotPartial: a caller-cancelled request must surface
// as context.Canceled even in degrade-to-partial mode — an operator
// counting partial results must not see client disconnects in there.
func TestScatterCancelledIsNotPartial(t *testing.T) {
	set := buildTestSet(t, 3)
	m := &recordingMetrics{}
	set.SetMetrics(m)
	set.SetAllowPartial(true)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, partial, err := scatterShards(ctx, set, func(ctx context.Context, eng *core.Engine) (*core.Response, error) {
		return eng.SearchCtx(ctx, core.SearchRequest{Query: core.NewQuery("apple"), S: 1})
	})
	if partial {
		t.Fatal("cancelled request reported as partial")
	}
	if err == nil {
		// All shards may still have completed before noticing cancellation
		// (the engine polls cooperatively); that counts as success, never as
		// a partial response.
		if m.partials != 0 {
			t.Fatalf("partial counter = %d on a successful fan-out", m.partials)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.partials != 0 {
		t.Fatalf("partial counter = %d on a cancelled request", m.partials)
	}
}

// TestBestEffortPartialProbes: if ANY probe of the best-effort threshold
// scan came back partial, the final response must be flagged partial —
// a degraded probe can make a non-empty threshold look empty and steer
// the scan to a lower s, so even a final search that succeeded on every
// shard is not a complete answer.
func TestBestEffortPartialProbes(t *testing.T) {
	q := core.NewQuery("apple", "pear", "plum")
	search := func(_ context.Context, s int) (*core.Response, error) {
		return &core.Response{Query: q, S: s, Results: make([]core.Result, 3)}, nil
	}
	// Every probe above s=1 looks empty, so the scan settles on s=1, where
	// every shard answered.
	for _, degraded := range []bool{true, false} {
		resp, err := bestEffortPartialAware(context.Background(), q, func(_ context.Context, s int) (bool, bool, error) {
			return false, degraded, nil
		}, search)
		if err != nil {
			t.Fatal(err)
		}
		if resp.S != 1 || resp.Partial != degraded {
			t.Fatalf("degraded probes = %v: scan returned S=%d Partial=%v", degraded, resp.S, resp.Partial)
		}
	}
}

func TestSearchContextCancelled(t *testing.T) {
	set := buildTestSet(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := set.Search(ctx, core.SearchRequest{Query: core.ParseQuery("apple pear"), S: 1}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled or nil", err)
	}
}

// TestScatterConcurrentSearches exercises the fan-out under concurrent
// callers (meaningful with -race): a Set must be safe for concurrent
// readers like a single-index System.
func TestScatterConcurrentSearches(t *testing.T) {
	set := buildTestSet(t, 4)
	m := &recordingMetrics{}
	set.SetMetrics(m)
	want, err := set.Search(context.Background(), core.SearchRequest{Query: core.ParseQuery("apple pear plum"), S: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				got, err := set.Search(context.Background(), core.SearchRequest{Query: core.ParseQuery("apple pear plum"), S: 1})
				if err != nil {
					errs[i] = err
					return
				}
				if len(got.Results) != len(want.Results) {
					errs[i] = fmt.Errorf("goroutine %d: %d results, want %d",
						i, len(got.Results), len(want.Results))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildWorkerPoolRespectsBounds: Build with a tiny worker budget still
// builds every shard, and the clamped pool matches single-worker output.
func TestBuildWorkerPoolRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := randomCorpus(rng)
	opts := DefaultOptions(4)
	opts.Workers = 1
	serial, err := Build(docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 64 // clamped to the shard count internally
	parallel, err := Build(docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumShards() != parallel.NumShards() {
		t.Fatalf("worker budget changed shard count: %d vs %d",
			serial.NumShards(), parallel.NumShards())
	}
	q := core.NewQuery("apple", "pear")
	a, err := serial.Search(context.Background(), core.SearchRequest{Query: q, S: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Search(context.Background(), core.SearchRequest{Query: q, S: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, "worker bounds", a, b)
}

// TestPartitionDeterministic: the same corpus partitions identically on
// every call, in both hash and token-balance modes.
func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := randomCorpus(rng)
	for i, d := range docs {
		d.DocID = int32(i)
		d.AssignIDs()
	}
	for _, byTokens := range []bool{false, true} {
		opts := Options{Shards: 3, ByTokens: byTokens}
		a := Partition(docs, opts)
		b := Partition(docs, opts)
		if len(a) != len(b) {
			t.Fatalf("byTokens=%v: group counts differ", byTokens)
		}
		seen := 0
		for g := range a {
			if len(a[g]) != len(b[g]) {
				t.Fatalf("byTokens=%v: group %d sizes differ", byTokens, g)
			}
			for j := range a[g] {
				if a[g][j] != b[g][j] {
					t.Fatalf("byTokens=%v: group %d differs at %d", byTokens, g, j)
				}
				seen++
			}
			for j := 1; j < len(a[g]); j++ {
				if a[g][j-1].DocID >= a[g][j].DocID {
					t.Fatalf("byTokens=%v: group %d not in DocID order", byTokens, g)
				}
			}
		}
		if seen != len(docs) {
			t.Fatalf("byTokens=%v: %d documents assigned, want %d", byTokens, seen, len(docs))
		}
	}
}
