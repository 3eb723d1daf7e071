package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// legacyImages are the figure 2(a) segment in each generation this build
// no longer reads, in a fixed order: the version-1 header (as relabelled,
// and with the footer checksum over the footer alone, as version 1 sealed
// it), and version-2 files whose meta section has an older layout — the
// flat per-node records, or packed-meta version 1 with its value arena
// inline.
func legacyImages(t testing.TB) []namedImage {
	t.Helper()
	good := v2Image(t, WriterOptions{})
	foot, hdrLen := footerOf(t, good)

	v1 := bytes.Clone(good)
	v1[len(magic)] = 1
	v1Sealed := sealFooter(bodyOf(v1), v1[:hdrLen], foot.encode(), func(_, fb []byte) uint32 {
		return crc32.ChecksumIEEE(fb)
	})

	// One flat record: Dewey ID 0.0 (document, path length, component),
	// label 0, category, child count 0, subtree 1, parent+1 0, no value.
	var flat []byte
	for _, v := range []uint64{1, 1, 'a', 1, 1, 'd', 1, 0, 1, 0, 0, 2, 0, 1, 0, 0} {
		flat = binary.AppendUvarint(flat, v)
	}
	meta := good[foot.meta.off : foot.meta.off+foot.meta.cLen]
	if meta[0] != 0 || meta[1] != 2 {
		t.Fatalf("meta section leads with %d %d, want 0 2", meta[0], meta[1])
	}
	inline := append([]byte{0, 1}, meta[2:]...)

	return []namedImage{
		{"GKS4 version 1 header", v1},
		{"GKS4 version 1 footer seal", v1Sealed},
		{"flat GKS4 meta section", replaceMeta(t, good, flat)},
		{"GKS4 packed meta version 1", replaceMeta(t, good, inline)},
	}
}

type namedImage struct {
	name string
	img  []byte
}

// TestLegacyImagesRejected: every segment generation this build does not
// write fails to open with ErrCorrupt — the documented break; such a
// segment must be re-indexed from its XML — and never panics.
func TestLegacyImagesRejected(t *testing.T) {
	for _, c := range legacyImages(t) {
		if r, err := openImage(t, c.img); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				r.Close()
			}
			t.Errorf("%s: open error %v, want ErrCorrupt", c.name, err)
		}
	}
}
