package index

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
	if err := back.Validate(); err != nil {
		t.Fatalf("reloaded snapshot fails validation: %v", err)
	}
}

// TestSnapshotDetectsBitFlips flips every byte of a v3 snapshot in turn;
// each damaged image must fail to load (almost always via the CRC), and
// every failure must be typed ErrCorrupt — never a panic or a silently
// wrong index.
func TestSnapshotDetectsBitFlips(t *testing.T) {
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := range good {
		damaged := bytes.Clone(good)
		damaged[i] ^= 0x40
		_, err := Load(bytes.NewReader(damaged))
		if err == nil {
			t.Fatalf("flip at byte %d: corrupt snapshot loaded without error", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: error not ErrCorrupt: %v", i, err)
		}
	}
}

func TestSnapshotDetectsTruncation(t *testing.T) {
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := Load(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded without error", cut, len(good))
		}
	}
}

// TestSnapshotTruncationTypedAtEveryBoundary is the regression for the
// loader's truncation reporting: a snapshot cut at ANY byte boundary —
// including inside the final length-framed payload section, which used to
// surface as a generic unexpected-EOF I/O error — must load as a typed
// ErrCorrupt, and the file-level loader must name the file.
func TestSnapshotTruncationTypedAtEveryBoundary(t *testing.T) {
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	path := filepath.Join(t.TempDir(), "trunc.gksidx")
	for cut := 0; cut < len(good); cut++ {
		_, err := Load(bytes.NewReader(good[:cut]))
		if err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded without error", cut, len(good))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at byte %d: error not typed ErrCorrupt: %v", cut, err)
		}

		if err := os.WriteFile(path, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) {
			t.Fatalf("cut at byte %d: LoadFile error %v does not name %s as corrupt", cut, err, path)
		}
	}
}

// TestSkimSnapshotStats checks that the statistics a saved GKS3 snapshot
// reports through LoadFile (the path `gks stats` takes) are exactly those
// of the index that wrote it.
func TestSkimSnapshotStats(t *testing.T) {
	ix := buildFig2a(t)
	path := filepath.Join(t.TempDir(), "fig2a.gksidx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats != ix.Stats {
		t.Fatalf("LoadFile stats = %+v, want %+v", back.Stats, ix.Stats)
	}
}

// TestSkimSnapshotStatsBitFlips flips one bit in every byte of a saved
// snapshot: the whole payload goes through the checksum, so any damage —
// even in sections the stats do not come from — must surface as an
// ErrCorrupt naming the file rather than silently wrong statistics.
func TestSkimSnapshotStatsBitFlips(t *testing.T) {
	ix := buildFig2a(t)
	path := filepath.Join(t.TempDir(), "flip.gksidx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Stats
	for i := range good {
		damaged := bytes.Clone(good)
		damaged[i] ^= 0x01
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFile(path)
		switch {
		case err == nil:
			// A single-bit flip cannot checksum clean under CRC32; getting
			// here means a framing field was read before the checksum could
			// object — the stats must still never be silently wrong.
			if back.Stats != want {
				t.Fatalf("flip at %d: LoadFile returned wrong stats without error: %+v", i, back.Stats)
			}
		case !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path):
			t.Fatalf("flip at %d: error %v is not ErrCorrupt naming %s", i, err, path)
		}
	}
}

// failAfterWriter errors once n bytes have been written — the simulated
// crash / full disk in the middle of a snapshot save.
type failAfterWriter struct {
	w io.Writer
	n int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("simulated crash mid-write")
	}
	if len(p) > f.n {
		p = p[:f.n]
		n, err := f.w.Write(p)
		f.n -= n
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("simulated crash mid-write")
	}
	n, err := f.w.Write(p)
	f.n -= n
	return n, err
}

// TestSaveFileCrashMidWritePreservesPrevious proves the atomicity claim:
// when a save dies partway through, the previous snapshot at the
// destination survives byte-for-byte and still loads, and no temp litter
// is left behind.
func TestSaveFileCrashMidWritePreservesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.gksidx")

	ix := buildFig2a(t)
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, failAt := range []int{0, 1, 10, len(goodBytes) / 2, len(goodBytes) - 1} {
		testInterceptWriter = func(w io.Writer) io.Writer { return &failAfterWriter{w: w, n: failAt} }
		err := ix.SaveFile(path)
		testInterceptWriter = nil
		if err == nil {
			t.Fatalf("failAt=%d: SaveFile succeeded despite writer failure", failAt)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("failAt=%d: previous snapshot gone: %v", failAt, err)
		}
		if !bytes.Equal(after, goodBytes) {
			t.Fatalf("failAt=%d: previous snapshot modified by failed save", failAt)
		}
		if _, err := LoadFile(path); err != nil {
			t.Fatalf("failAt=%d: previous snapshot no longer loads: %v", failAt, err)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind by failed save", e.Name())
		}
	}
}

func TestSaveFileReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.gksidx")
	ix := buildFig2a(t)
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
}

// TestLoadFileCorruptNamesFile covers the startup contract: a corrupt or
// truncated snapshot fails fast with an ErrCorrupt-wrapped error that
// names the offending file.
func TestLoadFileCorruptNamesFile(t *testing.T) {
	dir := t.TempDir()
	ix := buildFig2a(t)

	var snap bytes.Buffer
	if err := ix.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	gob := bytes.NewBuffer(gobV1Image(t, ix))
	var bin bytes.Buffer
	if err := ix.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"garbage.gksidx":       []byte("this is not an index at all"),
		"truncated-v3.gksidx":  snap.Bytes()[:snap.Len()/2],
		"flipped-v3.gksidx":    flipByte(snap.Bytes(), snap.Len()-2),
		"truncated-gob.gksidx": gob.Bytes()[:gob.Len()/2],
		"truncated-v2.gksidx":  bin.Bytes()[:bin.Len()/2],
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		if err == nil {
			t.Errorf("%s: loaded without error", name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error not ErrCorrupt: %v", name, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error does not name the file: %v", name, err)
		}
	}

	// A missing file is an environmental error, not corruption.
	if _, err := LoadFile(filepath.Join(dir, "nope.gksidx")); err == nil {
		t.Error("missing file loaded without error")
	} else if errors.Is(err, ErrCorrupt) {
		t.Errorf("missing file misreported as corrupt: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0xff
	return out
}

// TestLoadBoundedAllocation feeds headers that claim astronomically many
// nodes/postings backed by almost no bytes; the loader must reject them as
// corrupt (given the known file size) instead of pre-allocating gigabytes.
func TestLoadBoundedAllocation(t *testing.T) {
	dir := t.TempDir()

	// v2 stream: magic, version 2, 0 labels, 0 docs, 2^30 nodes... and EOF.
	hugeNodes := append([]byte(binaryMagic), 2, 0, 0)
	hugeNodes = appendUvarint(hugeNodes, 1<<30)
	path := filepath.Join(dir, "huge-nodes.gksidx")
	if err := os.WriteFile(path, hugeNodes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge node count: want ErrCorrupt, got %v", err)
	}

	// Same stream through size-unknown Load: it may begin decoding, but the
	// bounded pre-allocation means it fails on EOF after a small allocation
	// rather than demanding 2^30 * sizeof(NodeInfo) up front.
	if _, err := Load(bytes.NewReader(hugeNodes)); err == nil {
		t.Error("huge node count loaded without error from stream")
	}

	// v3 envelope claiming a multi-GB payload that is not there.
	hdr := appendUvarint(nil, snapshotVersion)
	hdr = appendUvarint(hdr, 1<<40)
	frame := append([]byte(snapshotMagic), byte(len(hdr)))
	frame = append(frame, hdr...)
	if _, err := Load(bytes.NewReader(frame)); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("lying v3 payload length: want ErrCorrupt, got %v", err)
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestValidateCatchesDamage(t *testing.T) {
	good := buildFig2a(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("healthy index fails validation: %v", err)
	}

	mutate := map[string]func(*Index){
		"label out of range":   func(ix *Index) { ix.cols.label[0] = int32(len(ix.Labels)) },
		"value out of range":   func(ix *Index) { ix.cols.val[1] = int32(len(ix.cols.valOff)) },
		"parent not preceding": func(ix *Index) { ix.cols.parent[1] = int32(ix.NodeCount()) },
		"subtree overruns":     func(ix *Index) { ix.cols.subtree[0] = int32(ix.NodeCount()) + 5 },
		"subtree leaves its parent's": func(ix *Index) {
			c := ix.cols
			for ord := int32(1); ord < int32(ix.NodeCount()); ord++ {
				if p := c.parent[ord]; p > 0 && p+c.subtree[p] < int32(ix.NodeCount()) {
					c.subtree[ord] = p + c.subtree[p] - ord + 1
					return
				}
			}
			panic("no node below depth 1 ends before the table does")
		},
		"depth not the parent's + 1": func(ix *Index) { ix.cols.depth[1]++ },
		"record column":              func(ix *Index) { ix.cols.recStart = ix.cols.recStart[1:] },
		"posting out of range": func(ix *Index) {
			for kw := range ix.Postings {
				ix.Postings[kw] = []int32{int32(ix.NodeCount())}
				break
			}
		},
		"posting out of order": func(ix *Index) {
			for kw := range ix.Postings {
				ix.Postings[kw] = []int32{2, 1}
				break
			}
		},
	}
	for name, fn := range mutate {
		ix := buildFig2a(t)
		fn(ix)
		if err := ix.Validate(); err == nil {
			t.Errorf("%s: validation passed on damaged index", name)
		}
	}
}
