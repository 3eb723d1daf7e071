package segment

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// v1Fixtures are the committed version-1 segments, flat and packed meta.
var v1Fixtures = []string{"fig2a-flat-meta.gks4", "multi-flat-meta.gks4", "fig2a-packed-v1.gks4", "multi-packed-v1.gks4"}

// openImage writes img to a temp file and opens it.
func openImage(t *testing.T, img []byte) (*Reader, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.gks4")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenFile(path, Options{CacheBytes: -1})
}

// rewriteFooter re-encodes the version-2 footer of img after edit and
// re-seals the trailer, so the damage edit makes reaches the checks behind
// the footer checksum.
func rewriteFooter(t testing.TB, img []byte, edit func(*footerData)) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.gks4")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	f, hdrLen, foot, err := openFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if foot.version != formatVersion {
		t.Fatalf("rewriteFooter needs a version-%d image, got %d", formatVersion, foot.version)
	}
	edit(foot)
	footerLen := int(binary.LittleEndian.Uint32(img[len(img)-trailerSize:]))
	out := append([]byte(nil), img[:len(img)-trailerSize-footerLen]...)
	fb := foot.encode()
	out = append(out, fb...)
	var tail [trailerSize]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(fb)))
	binary.LittleEndian.PutUint32(tail[4:8], footerCRC(img[:hdrLen], fb))
	copy(tail[8:12], trailerMagic)
	return append(out, tail[:]...)
}

// v2Image returns the bytes of a fresh version-2 segment of the tiny index.
func v2Image(t *testing.T, opts WriterOptions) []byte {
	t.Helper()
	img, err := os.ReadFile(writeTemp(t, tinyIndex(t), opts))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestVersionByteRewritten: the header's version varint sits outside every
// section CRC, so the footer repeats it and a version-2 footer checksum
// covers the header. A version-1 file relabelled 2, and a version-2 file
// relabelled 1, must fail typed: version-1 flate blocks read as raw ones
// pass every block CRC (it covers the stored bytes) and decode to wrong
// postings.
func TestVersionByteRewritten(t *testing.T) {
	images := map[string][]byte{}
	for _, name := range v1Fixtures {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if img[len(magic)] != 1 {
			t.Fatalf("%s: header version %d, want 1", name, img[len(magic)])
		}
		img[len(magic)] = 2
		images[name+" as v2"] = img
	}
	img := v2Image(t, WriterOptions{})
	if img[len(magic)] != 2 {
		t.Fatalf("writer header version %d, want 2", img[len(magic)])
	}
	img[len(magic)] = 1
	images["v2 as v1"] = img

	for name, img := range images {
		path := filepath.Join(t.TempDir(), "relabelled.gks4")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadStats(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadStats error %v, want ErrCorrupt", name, err)
		}
		r, err := OpenFile(path, Options{})
		if !errors.Is(err, ErrCorrupt) {
			if err == nil {
				list, perr := r.Postings("ai")
				r.Close()
				t.Fatalf("%s: opened; Postings(\"ai\") = %v, %v", name, list, perr)
			}
			t.Fatalf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
}

// TestFooterVersionMustMatchHeader: a version-2 footer whose own version
// field disagrees with the header fails typed even when its checksum is
// resealed.
func TestFooterVersionMustMatchHeader(t *testing.T) {
	img := rewriteFooter(t, v2Image(t, WriterOptions{}), func(f *footerData) { f.version = 3 })
	if _, err := openImage(t, img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
}

// TestV2PostingsNeverInflate: on a version-2 file flate runs once, at open
// (the values section), and never on the posting path; a version-1 file
// still inflates its blocks.
func TestV2PostingsNeverInflate(t *testing.T) {
	ix := bigIndex(t)
	path := writeTemp(t, ix, WriterOptions{BlockSize: 1 << 10})
	var fetched missCounter
	r, err := OpenFile(path, Options{CacheBytes: -1, Metrics: &fetched})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.inflates.Load(); n != 1 {
		t.Fatalf("open inflated %d times, want 1 (the values section)", n)
	}
	assertSamePostings(t, ix, r)
	if n := fetched.n.Load(); n < int64(r.NumBlocks()) {
		t.Fatalf("%d block reads over %d blocks: the walk was meant to read every block", n, r.NumBlocks())
	}
	if n := r.inflates.Load(); n != 1 {
		t.Fatalf("%d inflates after the posting walk of a version-2 file, want the 1 of open", n)
	}

	v1, err := OpenFile(filepath.Join("testdata", "multi-packed-v1.gks4"), Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	if n := v1.inflates.Load(); n != 0 {
		t.Fatalf("opening a version-1 file inflated %d times", n)
	}
	if _, err := v1.Postings("ai"); err != nil {
		t.Fatal(err)
	}
	if v1.inflates.Load() != 1 {
		t.Fatal("a version-1 block fetch did not inflate")
	}
}

// TestValuesSectionDamage: the values section is CRC-checked and its
// inflated length must be reachable from its stored length and equal the
// meta's arena length; each violation fails open typed.
func TestValuesSectionDamage(t *testing.T) {
	good := v2Image(t, WriterOptions{})
	r, err := openImage(t, good)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	for name, img := range valuesDamage(t, good) {
		if r, err := openImage(t, img); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				r.Close()
			}
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
}

// valuesDamage returns images of good with its values section damaged:
// a bit flip, a truncation, resealed footers whose inflated length is out
// of flate's reach or off the section's stream by one, and a well-formed
// section holding one byte more than the meta's arena length.
func valuesDamage(t testing.TB, good []byte) map[string][]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "good.gks4")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	f, _, foot, err := openFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := foot.values
	flip := append([]byte(nil), good...)
	flip[v.off+v.cLen/2] ^= 0x10
	arena, err := inflate(good[v.off:v.off+v.cLen], v.uLen)
	if err != nil {
		t.Fatal(err)
	}
	longer, err := deflate(append(arena, 'x'))
	if err != nil {
		t.Fatal(err)
	}
	resealed := rewriteFooter(t, good, func(f *footerData) {
		f.values = frame(v.off, longer)
		f.values.uLen = int64(len(arena) + 1)
	})
	longArena := append(append(append([]byte(nil), good[:v.off]...), longer...), resealed[v.off+v.cLen:]...)
	return map[string][]byte{
		"arena longer than meta's": longArena,
		"bit flip":                 flip,
		"truncated":                append(append([]byte(nil), good[:v.off+v.cLen/2]...), good[v.off+v.cLen:]...),
		"past ratio": rewriteFooter(t, good, func(f *footerData) {
			f.values.uLen = f.values.cLen*maxInflateRatio + 1
		}),
		"short of arena": rewriteFooter(t, good, func(f *footerData) { f.values.uLen-- }),
		"past arena":     rewriteFooter(t, good, func(f *footerData) { f.values.uLen++ }),
	}
}

// nodeEncodingDamage returns copies of the version-2 image good whose
// meta section's instance table breaks one of the rules the node table's
// expansion relies on, re-framed and re-sealed so the damage reaches the
// decoder. The meta is walked up to the instance table (see
// index.EncodeMeta); what follows it is kept as written. good's encoding
// needs at least two instances.
func nodeEncodingDamage(t testing.TB, good []byte) map[string][]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "good.gks4")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	f, hdrLen, foot, err := openFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	meta := good[foot.meta.off : foot.meta.off+foot.meta.cLen]
	c := cursor{buf: meta}
	next := func() uint64 {
		v, err := c.uvarint()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	skipStrings := func() {
		for i := next(); i > 0; i-- {
			if _, err := c.bytes(int(next())); err != nil {
				t.Fatal(err)
			}
		}
	}
	next() // 0
	next() // packed-meta version
	skipStrings()
	skipStrings()
	n := next()
	for i := next(); i > 0; i-- { // spine records: a category byte among 7 uvarints
		next()
		c.off++
		for k := 0; k < 6; k++ {
			next()
		}
	}
	head := meta[:c.off]
	inst := make([][5]uint64, next())
	for i := range inst {
		for k := range inst[i] {
			inst[i][k] = next()
		}
	}
	rest := meta[c.off:]
	nShapes, _ := binary.Uvarint(rest)
	last := len(inst) - 1
	if last < 1 {
		t.Fatalf("encoding holds %d instances, want at least 2", last+1)
	}

	out := map[string][]byte{}
	for name, edit := range map[string]func(in [][5]uint64) [][5]uint64{
		"instance past the node count":          func(in [][5]uint64) [][5]uint64 { in[last][0] = n; return in },
		"overlapping instances":                 func(in [][5]uint64) [][5]uint64 { in[1][0] = in[0][0]; return in },
		"shape past the shape table":            func(in [][5]uint64) [][5]uint64 { in[0][1] = nShapes; return in },
		"spine count disagrees with the ranges": func(in [][5]uint64) [][5]uint64 { return in[:last] },
	} {
		in := edit(append([][5]uint64(nil), inst...))
		dam := append([]byte(nil), head...)
		dam = binary.AppendUvarint(dam, uint64(len(in)))
		for _, r := range in {
			for _, v := range r {
				dam = binary.AppendUvarint(dam, v)
			}
		}
		dam = append(dam, rest...)
		ft := *foot
		ft.meta = frame(foot.meta.off, dam)
		fb := ft.encode()
		img := append(append([]byte(nil), good[:foot.meta.off]...), dam...)
		img = append(img, good[foot.meta.off+foot.meta.cLen:foot.values.off+foot.values.cLen]...)
		for _, b := range foot.blocks {
			img = append(img, good[b.off:b.off+b.cLen]...)
		}
		img = append(img, fb...)
		var tail [trailerSize]byte
		binary.LittleEndian.PutUint32(tail[0:4], uint32(len(fb)))
		binary.LittleEndian.PutUint32(tail[4:8], footerCRC(good[:hdrLen], fb))
		copy(tail[8:12], trailerMagic)
		out[name] = append(img, tail[:]...)
	}
	return out
}

// TestOpenRejectsDamagedNodeEncoding: a meta section whose instance ranges,
// shape indexes or spine count break what the node table's expansion
// indexes by fails open typed as ErrCorrupt.
func TestOpenRejectsDamagedNodeEncoding(t *testing.T) {
	for name, img := range nodeEncodingDamage(t, v2Image(t, WriterOptions{})) {
		r, err := openImage(t, img)
		if err == nil {
			r.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: open error %v, want ErrCorrupt", name, err)
		}
	}
}
