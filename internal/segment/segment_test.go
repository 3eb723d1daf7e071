package segment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

func tinyIndex(t *testing.T) *index.Index {
	t.Helper()
	ix, err := index.BuildDocument(xmltree.BuildFigure2a(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func bigIndex(t *testing.T) *index.Index {
	t.Helper()
	ix, err := index.Build(datagen.Repo(datagen.SwissProt(datagen.Config{Seed: 9, Scale: 2})), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func writeTemp(t *testing.T, ix *index.Index, opts WriterOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.gks4")
	if err := WriteFileOpts(path, ix, opts); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertSamepostings walks every term of the source index and compares
// the segment's lazily fetched list against the resident one.
func assertSamePostings(t *testing.T, ix *index.Index, r *Reader) {
	t.Helper()
	terms := 0
	err := r.ForEachTerm(func(term string, count int) error {
		want := ix.PostingsFor(term)
		got, err := r.Postings(term)
		if err != nil {
			t.Fatalf("Postings(%q): %v", term, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Postings(%q) = %v, want %v", term, got, want)
		}
		if count != len(want) {
			t.Fatalf("directory count for %q = %d, want %d", term, count, len(want))
		}
		terms++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if terms != r.TermCount() || terms != ix.Stats.DistinctKeywords {
		t.Fatalf("terms walked = %d, TermCount = %d, DistinctKeywords = %d", terms, r.TermCount(), ix.Stats.DistinctKeywords)
	}
}

// TestOpenFlatMetaSegment: a segment whose meta section holds the flat
// per-node records (the testdata images, written before the packed table
// was the only one) opens into a packed index answering exactly like a
// fresh build of the same documents.
func TestOpenFlatMetaSegment(t *testing.T) {
	assertFixturesMatchFreshBuild(t, "fig2a-flat-meta.gks4", "multi-flat-meta.gks4")
}

// TestOpenPackedV1Segment: version-1 segments with a packed meta section
// (inline value arena, flate posting blocks; the testdata images were
// written by the version-1 writer, multi at a 64-byte block size) open
// into an index answering exactly like a fresh build.
func TestOpenPackedV1Segment(t *testing.T) {
	assertFixturesMatchFreshBuild(t, "fig2a-packed-v1.gks4", "multi-packed-v1.gks4")
}

// fixtureRepo returns the documents a testdata segment indexes:
// "fig2a-…" holds Figure 2(a), "multi-…" Figure 2(a) then Figure 1.
func fixtureRepo(name string) *xmltree.Repository {
	if strings.HasPrefix(name, "fig2a-") {
		return datagen.Repo(xmltree.BuildFigure2a())
	}
	multi := &xmltree.Repository{}
	multi.Add(xmltree.BuildFigure2a())
	multi.Add(xmltree.BuildFigure1())
	return multi
}

// assertFixturesMatchFreshBuild opens each testdata segment and checks
// its stats, every row and every posting list against a fresh build.
func assertFixturesMatchFreshBuild(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		want, err := index.Build(fixtureRepo(name), index.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(filepath.Join("testdata", name), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := r.Index()
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Stats != want.Stats || got.NodeCount() != want.NodeCount() {
			t.Fatalf("%s: stats %+v over %d rows, want %+v over %d", name, got.Stats, got.NodeCount(), want.Stats, want.NodeCount())
		}
		for ord := int32(0); ord < int32(want.NodeCount()); ord++ {
			if got.IDOf(ord).String() != want.IDOf(ord).String() || got.LabelOf(ord) != want.LabelOf(ord) ||
				got.CatOf(ord) != want.CatOf(ord) || got.ValueAt(ord) != want.ValueAt(ord) {
				t.Fatalf("%s: row %d differs from a fresh build", name, ord)
			}
		}
		assertSamePostings(t, want, r)
		r.Close()
	}
}

func TestRoundTripTiny(t *testing.T) {
	ix := tinyIndex(t)
	path := writeTemp(t, ix, WriterOptions{})
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Stats() != ix.Stats {
		t.Fatalf("Stats = %+v, want %+v", r.Stats(), ix.Stats)
	}
	assertSamePostings(t, ix, r)
}

// TestRoundTripMultiBlock forces many small blocks so block packing,
// offset derivation and the per-block CRCs are all exercised, and checks
// that misses and (with a tiny shared cache) evictions behave.
func TestRoundTripMultiBlock(t *testing.T) {
	ix := bigIndex(t)
	path := writeTemp(t, ix, WriterOptions{BlockSize: 1 << 10})
	var fetched missCounter
	cache := NewBlockCache(4<<10, &fetched)
	r, err := OpenFile(path, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() < 8 {
		t.Fatalf("only %d blocks with a 1 KiB block size; corpus too small to test packing", r.NumBlocks())
	}
	assertSamePostings(t, ix, r)
	assertSamePostings(t, ix, r) // second pass hits + refetches after eviction
	if cache.Bytes() > 4<<10 {
		t.Fatalf("cache resident bytes %d exceed capacity", cache.Bytes())
	}
	if n := fetched.n.Load(); n <= int64(r.NumBlocks()) {
		t.Fatalf("block reads %d <= %d blocks: eviction never forced a refetch", n, r.NumBlocks())
	}
	r.Close()
	if cache.Len() != 0 {
		t.Fatalf("cache still holds %d blocks after the only reader closed", cache.Len())
	}
}

// TestStatsWithoutBlockReads is the satellite regression: both ReadStats
// and a full Open answer stats and the term directory without touching a
// single posting block — proven by corrupting every block body on disk
// and observing no error until a posting list is actually requested.
func TestStatsWithoutBlockReads(t *testing.T) {
	ix := bigIndex(t)
	path := writeTemp(t, ix, WriterOptions{BlockSize: 2 << 10})

	r0, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := r0.NumBlocks()
	start, end := r0.blocks[0].off, r0.blocks[blocks-1].off+r0.blocks[blocks-1].cLen
	r0.Close()

	// Trash every posting block byte. Footer, meta and trailer stay intact.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := start; i < end; i++ {
		raw[i] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := ReadStats(path)
	if err != nil {
		t.Fatalf("ReadStats over trashed blocks: %v", err)
	}
	if st != ix.Stats {
		t.Fatalf("ReadStats = %+v, want %+v", st, ix.Stats)
	}

	var fetched missCounter
	r, err := OpenFile(path, Options{Metrics: &fetched})
	if err != nil {
		t.Fatalf("OpenFile over trashed blocks: %v", err)
	}
	defer r.Close()
	if r.Stats() != ix.Stats {
		t.Fatalf("Stats = %+v, want %+v", r.Stats(), ix.Stats)
	}
	n := 0
	if err := r.ForEachTerm(func(string, int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != r.TermCount() {
		t.Fatalf("ForEachTerm visited %d of %d terms", n, r.TermCount())
	}
	if n := fetched.n.Load(); n != 0 {
		t.Fatalf("stats/term walk performed %d block reads, want 0", n)
	}
	// Actually touching a list must now surface the damage as ErrCorrupt.
	var term string
	r.ForEachTerm(func(tm string, _ int) error { term = tm; return errStop })
	if _, err := r.Postings(term); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Postings over a trashed block: err = %v, want ErrCorrupt", err)
	}
}

var errStop = errors.New("stop")

// TestOpenTruncationSweep truncates a valid segment at every byte
// boundary: every prefix must fail OpenFile with a typed ErrCorrupt that
// names the file — never a panic, never a silent success.
func TestOpenTruncationSweep(t *testing.T) {
	ix := tinyIndex(t)
	path := writeTemp(t, ix, WriterOptions{BlockSize: 256})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	trunc := filepath.Join(dir, "trunc.gks4")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(trunc, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(trunc, Options{})
		if err == nil {
			r.Close()
			t.Fatalf("OpenFile succeeded on a %d/%d-byte prefix", n, len(raw))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: err = %v, want ErrCorrupt", n, err)
		}
		if !containsPath(err, trunc) {
			t.Fatalf("prefix %d: error %q does not name the file", n, err)
		}
	}
}

func containsPath(err error, path string) bool {
	return err != nil && len(err.Error()) > 0 && (stringContains(err.Error(), path))
}

func stringContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSharedCacheAcrossReaders opens the same file twice against one
// cache (the hot-reload shape) and checks the readers never serve each
// other's entries and release only their own on Close.
func TestSharedCacheAcrossReaders(t *testing.T) {
	ix := tinyIndex(t)
	path := writeTemp(t, ix, WriterOptions{BlockSize: 256})
	var fetched missCounter
	cache := NewBlockCache(1<<20, &fetched)
	r1, err := OpenFile(path, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OpenFile(path, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	assertSamePostings(t, ix, r1)
	first := fetched.n.Load()
	assertSamePostings(t, ix, r2)
	if first == 0 || fetched.n.Load() == first {
		t.Fatal("one reader served zero disk reads: cache entries leaked across reader identities")
	}
	before := cache.Len()
	if before == 0 {
		t.Fatal("nothing cached")
	}
	r1.Close()
	if after := cache.Len(); after >= before || after == 0 {
		t.Fatalf("cache len after closing one of two readers = %d (was %d)", after, before)
	}
	r2.Close()
	if cache.Len() != 0 {
		t.Fatalf("cache len after closing both readers = %d, want 0", cache.Len())
	}
}

// TestPostingsAfterClose must fail cleanly, not as corruption and not as
// a use-after-close crash.
func TestPostingsAfterClose(t *testing.T) {
	ix := tinyIndex(t)
	path := writeTemp(t, ix, WriterOptions{})
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var term string
	r.ForEachTerm(func(tm string, _ int) error { term = tm; return errStop })
	r.Close()
	if _, err := r.Postings(term); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Postings after Close: err = %v, want a plain closed error", err)
	}
}

func TestIsSegmentFile(t *testing.T) {
	ix := tinyIndex(t)
	g4 := writeTemp(t, ix, WriterOptions{})
	g3 := filepath.Join(t.TempDir(), "ix.gksidx")
	if err := ix.SaveFile(g3); err != nil {
		t.Fatal(err)
	}
	if !IsSegmentFile(g4) {
		t.Error("IsSegmentFile(gks4) = false")
	}
	if IsSegmentFile(g3) {
		t.Error("IsSegmentFile(gks3) = true")
	}
	if IsSegmentFile(filepath.Join(t.TempDir(), "missing")) {
		t.Error("IsSegmentFile(missing) = true")
	}
}

// TestLazySaveSnapshotEquals checks the leader-snapshot path: streaming a
// GKS3 snapshot out of a lazily opened segment produces the same bytes as
// saving the original resident index.
func TestLazySaveSnapshotEquals(t *testing.T) {
	ix := bigIndex(t)
	path := writeTemp(t, ix, WriterOptions{BlockSize: 2 << 10})
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dir := t.TempDir()
	fromEager := filepath.Join(dir, "eager.gksidx")
	fromLazy := filepath.Join(dir, "lazy.gksidx")
	if err := ix.SaveFile(fromEager); err != nil {
		t.Fatal(err)
	}
	if err := r.Index().SaveFile(fromLazy); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(fromEager)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fromLazy)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("GKS3 snapshot streamed from a lazy segment differs from the eager one")
	}
}

// TestCachedBlocksHaveNoSpareCapacity: the cache accounts a block by
// len(data), so a block inflated into a larger allocation (bytes.Buffer
// doubled nearly every default-size block to read the final EOF) would pin
// memory -block-cache-mb does not count.
func TestCachedBlocksHaveNoSpareCapacity(t *testing.T) {
	ix := bigIndex(t)
	path := writeTemp(t, ix, WriterOptions{BlockSize: 32 << 10})
	cache := NewBlockCache(64<<20, nil)
	r, err := OpenFile(path, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertSamePostings(t, ix, r)
	if cache.Len() != r.NumBlocks() || r.NumBlocks() < 4 {
		t.Fatalf("%d of %d blocks resident; the walk was meant to cache every block of several", cache.Len(), r.NumBlocks())
	}
	var held int64
	for e := cache.ll.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if cap(ent.data) != len(ent.data) {
			t.Errorf("block %d: len %d, cap %d", ent.key.block, len(ent.data), cap(ent.data))
		}
		held += int64(cap(ent.data))
	}
	if held != cache.Bytes() {
		t.Errorf("cache accounts %d bytes and holds %d", cache.Bytes(), held)
	}
}

// missCounter is a Metrics sink that counts block-cache misses; each is
// one posting block read from disk.
type missCounter struct {
	nopMetrics
	n atomic.Int64
}

func (c *missCounter) BlockCacheMiss() { c.n.Add(1) }
