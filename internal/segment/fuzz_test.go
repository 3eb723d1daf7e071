package segment

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// FuzzLoadSegment feeds arbitrary byte images through the full open path:
// OpenFile, the term directory walk and every posting fetch. The contract
// under fuzzing is absolute — a damaged or adversarial image either fails
// with the typed ErrCorrupt or yields postings that pass the reader's own
// validity re-check; it never panics, never over-allocates on a lying
// length field, and never returns out-of-range ordinals.
func FuzzLoadSegment(f *testing.F) {
	ix, err := index.BuildDocument(xmltree.BuildFigure2a(), index.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.gks4")
	// Seeded: version 2 at several block sizes, and every legacy
	// generation the reader rejects (legacyImages).
	var seeds [][]byte
	for _, opts := range []WriterOptions{{}, {BlockSize: 256}, {BlockSize: 64}} {
		if err := WriteFileOpts(seedPath, ix, opts); err != nil {
			f.Fatal(err)
		}
		good, err := os.ReadFile(seedPath)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, good)
	}
	for _, bad := range valuesDamage(f, seeds[0]) {
		f.Add(bad)
	}
	for _, bad := range nodeEncodingDamage(f, seeds[0]) {
		f.Add(bad)
	}
	for _, c := range legacyImages(f) {
		seeds = append(seeds, c.img)
	}
	for _, good := range seeds {
		f.Add(good)
		// Seed targeted damage so the fuzzer starts at the interesting
		// boundaries: bit flips in the trailer, the footer and the first
		// posting block, plus truncations.
		for _, off := range []int{len(good) - 1, len(good) - 5, len(good) - 12, len(good) / 2, 5, len(good) - 40} {
			if off < 0 || off >= len(good) {
				continue
			}
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			f.Add(bad)
		}
		f.Add(good[:len(good)/2])
		f.Add(good[:len(good)-1])
	}
	f.Add([]byte("GKS4"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.gks4")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenFile(path, Options{CacheBytes: 1 << 12})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenFile: non-corrupt error %v", err)
			}
			return
		}
		defer r.Close()
		st := r.Stats()
		_ = st
		nNodes := int32(r.Index().NodeCount())
		walkErr := r.ForEachTerm(func(term string, count int) error {
			list, err := r.Postings(term)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					return err
				}
				return nil
			}
			prev := int32(-1)
			for _, ord := range list {
				if ord <= prev || ord >= nNodes {
					t.Fatalf("Postings(%q) returned invalid ordinal %d (prev %d, nNodes %d)", term, ord, prev, nNodes)
				}
				prev = ord
			}
			return nil
		})
		if walkErr != nil && !errors.Is(walkErr, ErrCorrupt) {
			t.Fatalf("term walk: non-corrupt error %v", walkErr)
		}
	})
}
