package index

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotTruncationTypedAtEveryBoundary is the regression for the
// loader's truncation reporting: a snapshot cut at ANY byte boundary —
// including inside the final length-framed payload section, which used to
// surface as a generic unexpected-EOF I/O error — must load as a typed
// ErrCorrupt, and the file-level loaders must name the file.
func TestSnapshotTruncationTypedAtEveryBoundary(t *testing.T) {
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.gksidx")
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
		// Cuts inside the magic read as "not a GKS3 snapshot" — the
		// sentinel that sends callers to the full loader — which is as
		// typed as ErrCorrupt; anything else must be corrupt + file name.
		switch _, err := SkimSnapshotStats(path); {
		case err == nil:
			t.Fatalf("cut at byte %d: skim succeeded on a truncated snapshot", cut)
		case errors.Is(err, ErrSkimUnsupported):
		case errors.Is(err, ErrCorrupt) && strings.Contains(err.Error(), path):
		default:
			t.Fatalf("cut at byte %d: SkimSnapshotStats error %v is neither ErrSkimUnsupported nor ErrCorrupt naming %s", cut, err, path)
		}
	}
}

// TestSkimSnapshotStats checks the streaming stats skim returns exactly
// what a full load would, for both a pristine and a compacted index.
func TestSkimSnapshotStats(t *testing.T) {
	ix := buildFig2a(t)
	path := filepath.Join(t.TempDir(), "fig2a.gksidx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := SkimSnapshotStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if st != ix.Stats {
		t.Fatalf("SkimSnapshotStats = %+v, want %+v", st, ix.Stats)
	}
}

// TestSkimSnapshotStatsBitFlips flips every byte of a saved snapshot: the
// skim streams the whole payload through the checksum, so any damage —
// even in sections the skim does not decode — must surface as ErrCorrupt
// rather than silently wrong statistics.
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
		damaged := append([]byte(nil), good...)
		damaged[i] ^= 0x01
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := SkimSnapshotStats(path)
		switch {
		case err == nil:
			// A flip that still checksums clean is impossible for CRC32
			// over a single-bit change; getting here means a framing field
			// was read before the checksum could object — the stats must
			// still never be silently wrong.
			if st != want {
				t.Fatalf("flip at %d: skim returned wrong stats without error: %+v", i, st)
			}
		case errors.Is(err, ErrSkimUnsupported):
			// Flips inside the magic demote the file to "not GKS3".
		case errors.Is(err, ErrCorrupt):
		default:
			t.Fatalf("flip at %d: error not typed: %v", i, err)
		}
	}
}

// TestSkimUnsupportedFormats: pre-GKS3 formats do not carry a trailing
// checksum the skim can verify, so it must refuse with the sentinel and
// leave the caller to fall back to a full load.
func TestSkimUnsupportedFormats(t *testing.T) {
	ix := buildFig2a(t)
	dir := t.TempDir()

	gob := filepath.Join(dir, "v1.gksidx")
	if err := os.WriteFile(gob, gobV1Image(t, ix), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SkimSnapshotStats(gob); !errors.Is(err, ErrSkimUnsupported) {
		t.Fatalf("skim over gob snapshot: err = %v, want ErrSkimUnsupported", err)
	}

	var bin bytes.Buffer
	if err := ix.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "v2.gksidx")
	if err := os.WriteFile(v2, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SkimSnapshotStats(v2); !errors.Is(err, ErrSkimUnsupported) {
		t.Fatalf("skim over bare v2 image: err = %v, want ErrSkimUnsupported", err)
	}

	if _, err := SkimSnapshotStats(filepath.Join(dir, "missing.gksidx")); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("skim over missing file: err = %v, want a plain I/O error", err)
	}
}
