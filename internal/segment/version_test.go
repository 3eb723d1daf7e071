package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openImage writes img to a temp file and opens it.
func openImage(t *testing.T, img []byte) (*Reader, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.gks4")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenFile(path, Options{CacheBytes: -1})
}

// footerOf parses the footer of the version-2 image img.
func footerOf(t testing.TB, img []byte) (foot *footerData, hdrLen int) {
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
	return foot, hdrLen
}

// rewriteFooter re-encodes the version-2 footer of img after edit and
// re-seals the trailer, so the damage edit makes reaches the checks behind
// the footer checksum.
func rewriteFooter(t testing.TB, img []byte, edit func(*footerData)) []byte {
	t.Helper()
	foot, hdrLen := footerOf(t, img)
	edit(foot)
	return sealFooter(bodyOf(img), img[:hdrLen], foot.encode(), footerCRC)
}

// bodyOf is img up to its footer: the header and every section.
func bodyOf(img []byte) []byte {
	footerLen := int(binary.LittleEndian.Uint32(img[len(img)-trailerSize:]))
	return img[:len(img)-trailerSize-footerLen]
}

// sealFooter appends the footer fb and a trailer whose checksum crc
// computes over the header hdr and fb to a copy of body.
func sealFooter(body, hdr, fb []byte, crc func(hdr, footer []byte) uint32) []byte {
	out := append(bytes.Clone(body), fb...)
	var tail [trailerSize]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(fb)))
	binary.LittleEndian.PutUint32(tail[4:8], crc(hdr, fb))
	copy(tail[8:12], trailerMagic)
	return append(out, tail[:]...)
}

// replaceMeta returns the version-2 image good with its meta section
// replaced by meta, re-framed and re-sealed so the new section reaches
// the decoder.
func replaceMeta(t testing.TB, good, meta []byte) []byte {
	t.Helper()
	foot, hdrLen := footerOf(t, good)
	end := foot.meta.off + foot.meta.cLen
	body := append(append(bytes.Clone(good[:foot.meta.off]), meta...), bodyOf(good)[end:]...)
	foot.meta = frame(foot.meta.off, meta)
	return sealFooter(body, good[:hdrLen], foot.encode(), footerCRC)
}

// v2Image returns the bytes of a fresh version-2 segment of the tiny index.
func v2Image(t testing.TB, opts WriterOptions) []byte {
	t.Helper()
	img, err := os.ReadFile(writeTemp(t, tinyIndex(t), opts))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestVersionByteRewritten: the header's version varint sits outside every
// section CRC, so the footer repeats it and the footer checksum covers the
// header. A version-2 file relabelled 1 or 3 must fail typed.
func TestVersionByteRewritten(t *testing.T) {
	images := map[string][]byte{}
	img := v2Image(t, WriterOptions{})
	three := bytes.Clone(img)
	three[len(magic)] = 3
	images["v2 as v3"] = three
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
	good := v2Image(t, WriterOptions{})
	foot, hdrLen := footerOf(t, good)
	fb := foot.encode()
	fb[0] = 3 // the footer's version varint
	img := sealFooter(bodyOf(good), good[:hdrLen], fb, footerCRC)
	if _, err := openImage(t, img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
}

// TestV2PostingsNeverInflate: flate runs once, at open (the values
// section), and never on the posting path.
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
	foot, _ := footerOf(t, good)
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
	foot, _ := footerOf(t, good)
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
		out[name] = replaceMeta(t, good, dam)
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
