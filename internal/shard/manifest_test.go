package shard

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

// buildTestSet makes a small deterministic sharded set for persistence
// tests.
func buildTestSet(t *testing.T, shards int) *Set {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	docs := randomCorpus(rng)
	set, err := Build(docs, DefaultOptions(shards))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestManifestRoundTrip(t *testing.T) {
	set := buildTestSet(t, 4)
	set.Generation = 7
	path := filepath.Join(t.TempDir(), "corpus.gksm")
	if err := set.SaveManifest(path); err != nil {
		t.Fatal(err)
	}
	// SaveManifest advances the generation (crash-safety depends on the
	// advanced value naming the new shard files).
	if set.Generation != 8 {
		t.Fatalf("generation after save = %d, want 8", set.Generation)
	}

	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation != 8 {
		t.Fatalf("generation = %d, want 8", loaded.Generation)
	}
	if loaded.NumShards() != set.NumShards() {
		t.Fatalf("loaded %d shards, want %d", loaded.NumShards(), set.NumShards())
	}
	if err := loaded.ValidateIndex(); err != nil {
		t.Fatal(err)
	}

	// The reloaded set answers exactly like the original.
	q := core.NewQuery("apple", "pear")
	want, err := set.Search(context.Background(), core.SearchRequest{Query: q, S: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Search(context.Background(), core.SearchRequest{Query: q, S: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, "round trip", want, got)
	if wantSt, gotSt := set.Stats(), loaded.Stats(); wantSt != gotSt {
		t.Fatalf("stats after round trip %+v, want %+v", gotSt, wantSt)
	}
}

// TestManifestLoadAllOrNothing pins the corruption contract: whatever is
// wrong with the set — a bit flip in one shard file, a truncated shard, a
// missing shard, or a damaged manifest — the load fails as a whole with
// ErrCorrupt (or the underlying I/O error) and never yields a partial set.
func TestManifestLoadAllOrNothing(t *testing.T) {
	set := buildTestSet(t, 4)
	save := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "corpus.gksm")
		if err := set.SaveManifest(path); err != nil {
			t.Fatal(err)
		}
		return dir, path
	}

	cases := []struct {
		name      string
		damage    func(t *testing.T, dir, path string)
		wantPlain bool // plain error acceptable (I/O, not corruption)
	}{
		{name: "bit flip in one shard file", damage: func(t *testing.T, dir, path string) {
			flipByte(t, filepath.Join(dir, ShardFileName(path, set.Generation, 2)), 0x01)
		}},
		{name: "truncated shard file", damage: func(t *testing.T, dir, path string) {
			truncateFile(t, filepath.Join(dir, ShardFileName(path, set.Generation, 1)))
		}},
		{name: "missing shard file", wantPlain: true, damage: func(t *testing.T, dir, path string) {
			if err := os.Remove(filepath.Join(dir, ShardFileName(path, set.Generation, 0))); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "bit flip in manifest", damage: func(t *testing.T, dir, path string) {
			flipByte(t, path, 0x80)
		}},
		{name: "truncated manifest", damage: func(t *testing.T, dir, path string) {
			truncateFile(t, path)
		}},
		{name: "wrong magic", damage: func(t *testing.T, dir, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(data, "NOPE!")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, path := save(t)
			tc.damage(t, dir, path)
			loaded, err := LoadManifest(path)
			if err == nil {
				t.Fatalf("load succeeded on %s", tc.name)
			}
			if loaded != nil {
				t.Fatalf("load returned a set alongside error %v", err)
			}
			if !tc.wantPlain && !errors.Is(err, index.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
		})
	}
}

// TestManifestSaveCrashSafe pins the crash-safety contract of
// SaveManifest: a save in progress writes only generation-unique file
// names, so up to the instant of the final manifest rename the previous
// set stays loadable, and after the rename the stale generation's files
// are swept.
func TestManifestSaveCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.gksm")
	set := buildTestSet(t, 3)
	if err := set.SaveManifest(path); err != nil {
		t.Fatal(err)
	}
	genA := set.Generation
	_, entriesA, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window of a subsequent save: the next
	// generation's shard files hit the disk, the manifest rename never
	// does. The old manifest references only its own generation's files,
	// so the set must still load intact.
	for i, ix := range set.Indexes() {
		if err := ix.SaveFile(filepath.Join(dir, ShardFileName(path, genA+1, i))); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("set unloadable after interrupted save: %v", err)
	}
	if loaded.Generation != genA {
		t.Fatalf("interrupted save changed the loadable generation: %d, want %d", loaded.Generation, genA)
	}

	// Completing the save advances the generation, references only the
	// new names (disjoint from the old), and sweeps the old files.
	if err := set.SaveManifest(path); err != nil {
		t.Fatal(err)
	}
	if set.Generation <= genA {
		t.Fatalf("generation did not advance: %d after %d", set.Generation, genA)
	}
	_, entriesB, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	oldNames := make(map[string]bool, len(entriesA))
	for _, e := range entriesA {
		oldNames[e.Name] = true
	}
	for _, e := range entriesB {
		if oldNames[e.Name] {
			t.Fatalf("new manifest reuses shard file name %q from the previous generation", e.Name)
		}
	}
	for _, e := range entriesA {
		if _, err := os.Stat(filepath.Join(dir, e.Name)); !os.IsNotExist(err) {
			t.Errorf("stale shard file %s not swept after save (err=%v)", e.Name, err)
		}
	}
	if loaded, err = LoadManifest(path); err != nil {
		t.Fatal(err)
	}
	if loaded.Generation != set.Generation {
		t.Fatalf("loaded generation %d, want %d", loaded.Generation, set.Generation)
	}
}

// TestShardFilePatternScope: the stale-file sweep must only ever match
// names SaveManifest itself generates for this manifest base.
func TestShardFilePatternScope(t *testing.T) {
	pat := shardFilePattern("/data/corpus.gksm")
	for _, name := range []string{"corpus.gksm.s000", "corpus.gksm.g000002.s013"} {
		if !pat.MatchString(name) {
			t.Errorf("pattern missed shard file %q", name)
		}
	}
	for _, name := range []string{
		"corpus.gksm", "corpus.gksm.bak", "corpus.gksm.s1", "corpus.gksm.snapshot",
		"other.gksm.s000", "corpus.gksm.g2.s000x",
	} {
		if pat.MatchString(name) {
			t.Errorf("pattern would sweep unrelated file %q", name)
		}
	}
}

func flipByte(t *testing.T, path string, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= mask
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func truncateFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRejectsPathTraversal: a tampered manifest naming a shard
// file outside its own directory must be rejected before any file probe.
func TestManifestRejectsPathTraversal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "evil.gksm")
	evil := buildManifestBytes(3, []manifestEntry{{Name: "../../etc/passwd", CRC: 1, Size: 1}})
	if err := os.WriteFile(path, evil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !errors.Is(err, index.ErrCorrupt) {
		t.Fatalf("path-traversing manifest loaded: err=%v", err)
	}
}

// buildManifestBytes assembles a syntactically valid GKSM1 image for
// adversarial tests (correct trailing checksum, arbitrary entries).
func buildManifestBytes(gen uint64, entries []manifestEntry) []byte {
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	buf.Write(appendUvarint(nil, gen))
	buf.Write(appendUvarint(nil, uint64(len(entries))))
	for _, e := range entries {
		buf.Write(appendUvarint(nil, uint64(len(e.Name))))
		buf.WriteString(e.Name)
		buf.Write(appendUvarint(nil, uint64(e.CRC)))
		buf.Write(appendUvarint(nil, uint64(e.Size)))
	}
	sum := crcIEEE(buf.Bytes())
	var trailer [4]byte
	trailer[0] = byte(sum)
	trailer[1] = byte(sum >> 8)
	trailer[2] = byte(sum >> 16)
	trailer[3] = byte(sum >> 24)
	buf.Write(trailer[:])
	return buf.Bytes()
}

// FuzzLoadManifest drives the manifest parser with mutated images: it must
// return a set or an error, never panic, and a corrupt count or name
// length must not drive allocation beyond the declared bounds.
func FuzzLoadManifest(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	docs := randomCorpus(rng)
	set, err := Build(docs, DefaultOptions(3))
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.gksm")
	if err := set.SaveManifest(path); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	f.Add(buildManifestBytes(1, nil))
	f.Add(buildManifestBytes(2, []manifestEntry{{Name: "x.s000", CRC: 0xffffffff, Size: 1 << 40}}))
	f.Add(buildManifestBytes(3, []manifestEntry{{Name: "../escape", CRC: 1, Size: 1}}))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.gksm")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		gen, entries, err := readManifest(p)
		if err != nil {
			if entries != nil {
				t.Fatalf("readManifest returned entries alongside error: %v", err)
			}
			return
		}
		if len(entries) == 0 || len(entries) > maxManifestShards {
			t.Fatalf("accepted manifest with %d entries (gen %d)", len(entries), gen)
		}
		for _, e := range entries {
			if filepath.Base(e.Name) != e.Name {
				t.Fatalf("accepted path-traversing shard name %q", e.Name)
			}
		}
	})
}

// appendUvarint / crcIEEE keep the adversarial builder free of the
// production encoder (a shared bug would cancel out in tests).
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func crcIEEE(data []byte) uint32 {
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, d := range data {
		crc ^= uint32(d)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}
