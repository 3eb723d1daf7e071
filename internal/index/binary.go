package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/postings"
)

// Binary index image ("GKSI"): the payload of the GKS3 snapshot envelope
// (snapshot.go), which is the only place it is written or read. Posting
// lists are delta-varint compressed (internal/postings).
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "GKSI" | version (= 3)
//	labels:   count, then len+bytes each
//	docs:     count, then len+bytes each
//	nodes:    the node table's DAG encoding (see writeMeta)
//	postings: count, then per keyword:
//	            keyLen keyBytes n deltaVarints...
//	stats:    fixed sequence of varints
//
// Version 3 is the only version read. Version 2 stored a flat record per
// node with its full Dewey path; it is no longer read, and such an image
// fails as unsupported.
const (
	binaryMagic         = "GKSI"
	binaryVersionPacked = 3
)

// binWriter bundles the buffered writer and varint scratch the binary
// encoders share.
type binWriter struct {
	bw      *bufio.Writer
	scratch []byte
}

func (w *binWriter) uvarint(v uint64) {
	w.scratch = binary.AppendUvarint(w.scratch[:0], v)
	w.bw.Write(w.scratch)
}

func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.bw.WriteString(s)
}

// writeMetaPacked writes the labels/docs sections followed by the node
// table's DAG encoding (dag.go), packed from the columns — the part of the
// format shared between the GKSI image and the GKS4 segment meta section —
// and returns the encoding's value arena. When inlineArena is false the
// arena's bytes are left out (its length is still written): the caller
// stores them elsewhere. The table must be compacted.
func (w *binWriter) writeMetaPacked(ix *Index, inlineArena bool) []byte {
	img := packNodes(ix.cols)
	w.writeMeta(ix, img, inlineArena)
	return img.valArena
}

// writeMeta writes ix's labels and document names and the image. Negative-
// capable fields are stored +1 so plain uvarints suffice. No per-ordinal
// dispatch is written: instance ranges in ascending order plus the rule
// that spine slots take the remaining ordinals in ascending order (which
// is how packNodes emits them) reconstruct it exactly.
func (w *binWriter) writeMeta(ix *Index, p *dagImage, inlineArena bool) {
	w.uvarint(uint64(len(ix.Labels)))
	for _, l := range ix.Labels {
		w.str(l)
	}
	w.uvarint(uint64(len(ix.DocNames)))
	for _, d := range ix.DocNames {
		w.str(d)
	}

	w.uvarint(uint64(p.n))

	w.uvarint(uint64(len(p.spLabel)))
	for i := range p.spLabel {
		w.uvarint(uint64(p.spLabel[i]))
		w.bw.WriteByte(p.spCat[i])
		w.uvarint(uint64(p.spChild[i]))
		w.uvarint(uint64(p.spSubtree[i]))
		w.uvarint(uint64(p.spParent[i] + 1))
		w.uvarint(uint64(uint32(p.spLast[i])))
		w.uvarint(uint64(p.spDepth[i]))
		w.uvarint(uint64(p.spVal[i] + 1))
	}

	w.uvarint(uint64(len(p.inStart)))
	for i := range p.inStart {
		w.uvarint(uint64(p.inStart[i]))
		w.uvarint(uint64(p.inShape[i]))
		w.uvarint(uint64(p.inParent[i] + 1))
		w.uvarint(uint64(uint32(p.inLast[i])))
		w.uvarint(uint64(p.inDepth[i]))
	}

	w.uvarint(uint64(len(p.shOff) - 1))
	for s := 0; s+1 < len(p.shOff); s++ {
		base, end := p.shOff[s], p.shOff[s+1]
		w.uvarint(uint64(end - base))
		for k := base; k < end; k++ {
			w.uvarint(uint64(p.shLabel[k]))
			w.bw.WriteByte(p.shCat[k])
			w.uvarint(uint64(p.shChild[k]))
			w.uvarint(uint64(p.shSubtree[k]))
			w.uvarint(uint64(p.shParent[k] + 1))
			w.uvarint(uint64(uint32(p.shLast[k])))
			w.uvarint(uint64(p.shDepth[k]))
			w.uvarint(uint64(p.shVal[k] + 1))
		}
	}

	w.uvarint(uint64(len(p.valOff) - 1))
	w.uvarint(uint64(len(p.valArena)))
	if inlineArena {
		w.bw.Write(p.valArena)
	}
	for v := 0; v+1 < len(p.valOff); v++ {
		w.uvarint(uint64(p.valOff[v+1] - p.valOff[v]))
	}

	w.uvarint(uint64(len(p.docStart)))
	for k := range p.docStart {
		w.uvarint(uint64(p.docStart[k]))
		w.uvarint(uint64(uint32(p.docNum[k])))
	}
}

// The packed-meta version follows the leading 0 of a GKS4 meta section.
// Version 2, the only one read, holds the value arena's length but not its
// bytes, which GKS4 version 2 keeps in a values section of its own. The
// older meta sections — version 1 with the arena inline, and the flat
// per-node layout, which starts with the label count instead of 0 — fail
// as unsupported.
const metaExternalArena = 2

// EncodeMeta writes the labels, document names and node table without
// magic framing: a 0 sentinel, packed-meta version 2 and the DAG encoding
// without its value arena's bytes, which it returns for the caller to
// store. This is the GKS4 segment meta section (internal/segment);
// DecodeMeta is its inverse. A tombstoned index must be compacted by the
// caller first.
func EncodeMeta(w io.Writer, ix *Index) (arena []byte, err error) {
	bw := &binWriter{bw: bufio.NewWriter(w)}
	bw.uvarint(0)
	bw.uvarint(metaExternalArena)
	arena = bw.writeMetaPacked(ix, false)
	// Non-nil even when empty: DecodeMeta requires an arena.
	if arena == nil {
		arena = []byte{}
	}
	return arena, bw.bw.Flush()
}

// saveBinary writes the index as a GKSI image, the payload SaveSnapshot
// seals. A tombstoned index is compacted first — the on-disk formats have
// no notion of a delete mask — and a lazily-backed index streams its lists
// from the source one at a time, so serializing never materializes the
// postings.
func (ix *Index) saveBinary(w io.Writer) error {
	ix = ix.Compacted()
	bw := &binWriter{bw: bufio.NewWriter(w)}

	bw.bw.WriteString(binaryMagic)
	bw.uvarint(binaryVersionPacked)
	bw.writeMetaPacked(ix, true)
	if err := bw.writePostingsAndStats(ix); err != nil {
		return err
	}
	return bw.bw.Flush()
}

// writePostingsAndStats writes the sections that follow the node table.
// Keywords are written sorted so the format is deterministic. A separate
// buffer keeps list encoding off w.scratch, which the uvarint helper
// reuses.
func (w *binWriter) writePostingsAndStats(ix *Index) error {
	var encBuf []byte
	w.uvarint(uint64(ix.keywordCount()))
	err := ix.ForEachKeywordSorted(func(k string, list []int32) error {
		w.str(k)
		w.uvarint(uint64(len(list)))
		encBuf = postings.Encode(encBuf[:0], list)
		w.bw.Write(encBuf)
		return nil
	})
	if err != nil {
		return err
	}
	for _, v := range ix.Stats.fields() {
		w.uvarint(uint64(v))
	}
	return nil
}

// fields flattens Stats for serialization; order is part of the format.
func (s *Stats) fields() []int {
	return []int{
		s.Documents, s.ElementNodes, s.TextNodes, s.AttributeNodes,
		s.RepeatingNodes, s.EntityNodes, s.ConnectingNodes,
		s.DistinctKeywords, s.PostingEntries, s.MaxDepth,
	}
}

func (s *Stats) setFields(v []int) {
	s.Documents, s.ElementNodes, s.TextNodes, s.AttributeNodes,
		s.RepeatingNodes, s.EntityNodes, s.ConnectingNodes,
		s.DistinctKeywords, s.PostingEntries, s.MaxDepth =
		v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9]
}

const statsFieldCount = 10

// preallocCap bounds an upfront slice allocation for a decoded count when
// the input size is unknown: the slice starts at most this many elements
// and grows by append, so a lying count costs a bounded allocation before
// the stream runs dry and decoding fails.
const preallocCap = 1 << 16

// boundedCount validates a decoded element count. Every element occupies at
// least minBytes bytes of input, so when the input size is known a count
// exceeding size/minBytes proves corruption before anything is allocated;
// absCap is the structural ceiling (e.g. node ordinals are int32).
func boundedCount(what string, n uint64, minBytes, size int64, absCap uint64) (int, error) {
	if n > absCap {
		return 0, corruptf("binary load: implausible %s %d", what, n)
	}
	if size >= 0 && n > uint64(size)/uint64(minBytes) {
		return 0, corruptf("binary load: %s %d exceeds what %d input bytes can hold", what, n, size)
	}
	return int(n), nil
}

// fail types a decode error as corruption, naming the field it hit.
func fail(what string, err error) error {
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	return corruptf("binary load: %s: %v", what, err)
}

// decoder reads the varint framing every binary section shares. size
// bounds the bytes plausibly remaining in br (< 0 when unknown); all
// pre-allocations are capped against it so corrupt counts fail with
// ErrCorrupt instead of demanding multi-GB allocations.
type decoder struct {
	br   *bufio.Reader
	size int64
}

func (d *decoder) uvarint() (uint64, error) { return binary.ReadUvarint(d.br) }

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<28 || (d.size >= 0 && n > uint64(d.size)) {
		return "", corruptf("binary load: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// count reads an element count and bounds it as boundedCount does.
func (d *decoder) count(what string, minBytes int64, absCap uint64) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, fail(what, err)
	}
	return boundedCount(what, n, minBytes, d.size, absCap)
}

// i32 decodes a uvarint that was written as value+bias and must land in
// int32 range after unbiasing.
func (d *decoder) i32(what string, bias int64) (int32, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, fail(what, err)
	}
	u := int64(v) - bias
	if u < -1 || u > 1<<31-1 {
		return 0, corruptf("binary load: %s: value %d out of range", what, u)
	}
	return int32(u), nil
}

// loadBinary decodes the GKSI image payload, the verified payload of a
// GKS3 snapshot; its length bounds every allocation.
func loadBinary(payload []byte) (*Index, error) {
	body, ok := bytes.CutPrefix(payload, []byte(binaryMagic))
	if !ok {
		return nil, corruptf("binary load: unsupported snapshot payload: not a GKSI image")
	}
	d := &decoder{br: bufio.NewReader(bytes.NewReader(body)), size: int64(len(body))}
	version, err := d.uvarint()
	if err != nil {
		return nil, fail("version", err)
	}
	if version != binaryVersionPacked {
		return nil, corruptf("binary load: unsupported GKSI version %d", version)
	}
	ix := &Index{Postings: make(map[string][]int32), labelIDs: make(map[string]int32)}
	if err := d.readMeta(ix, nil); err != nil {
		return nil, err
	}

	nKeys, err := d.count("keyword count", 1, 1<<31)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nKeys; i++ {
		key, err := d.str()
		if err != nil {
			return nil, fail("keyword", err)
		}
		n, err := d.count("posting count", 1, 1<<31)
		if err != nil {
			return nil, err
		}
		list := make([]int32, 0, min(n, preallocCap))
		prev := int32(-1)
		for j := 0; j < n; j++ {
			delta, err := d.uvarint()
			if err != nil {
				return nil, fail("posting delta", err)
			}
			// A zero delta would decode a duplicate ordinal — lists are
			// strictly increasing by invariant, and the save-path codec
			// enforces it, so accepting one here would plant a panic in a
			// later save.
			if delta == 0 {
				return nil, corruptf("binary load: keyword %q: zero posting delta", key)
			}
			prev += int32(delta)
			list = append(list, prev)
		}
		ix.Postings[key] = list
	}

	vals := make([]int, statsFieldCount)
	for i := range vals {
		v, err := d.uvarint()
		if err != nil {
			return nil, fail("stats", err)
		}
		vals[i] = int(v)
	}
	ix.Stats.setFields(vals)
	return ix, nil
}

// DecodeMeta reads the labels/docs/nodes sections written by EncodeMeta
// into a fresh Index with no posting lists and zero statistics —
// the skeleton internal/segment hands to NewLazy. arena is the value arena
// EncodeMeta returned, and becomes the index's own. size bounds
// allocations as in Load; damaged input, and a meta section of an older
// layout, fail with ErrCorrupt.
func DecodeMeta(r io.Reader, size int64, arena []byte) (*Index, error) {
	d := &decoder{br: bufio.NewReader(r), size: size}
	lead, err := d.uvarint()
	if err != nil {
		return nil, corruptf("binary load: meta lead: %v", err)
	}
	if lead != 0 {
		return nil, corruptf("binary load: unsupported meta section: flat node records")
	}
	ver, err := d.uvarint()
	if err != nil {
		return nil, corruptf("binary load: packed meta version: %v", err)
	}
	if ver != metaExternalArena {
		return nil, corruptf("binary load: unsupported packed meta version %d", ver)
	}
	if arena == nil {
		return nil, corruptf("binary load: packed meta version %d needs its value arena", metaExternalArena)
	}
	ix := &Index{labelIDs: make(map[string]int32)}
	if err := d.readMeta(ix, arena); err != nil {
		return nil, err
	}
	return ix, nil
}

// readMeta decodes the labels, document names and node table into ix. A
// non-nil arena replaces the encoding's inline value arena.
func (d *decoder) readMeta(ix *Index, arena []byte) error {
	nLabels, err := d.count("label count", 1, 1<<31)
	if err != nil {
		return err
	}
	for i := 0; i < nLabels; i++ {
		l, err := d.str()
		if err != nil {
			return fail("label", err)
		}
		ix.labelIDs[l] = int32(len(ix.Labels))
		ix.Labels = append(ix.Labels, l)
	}
	nDocs, err := d.count("doc count", 1, 1<<31)
	if err != nil {
		return err
	}
	for i := 0; i < nDocs; i++ {
		name, err := d.str()
		if err != nil {
			return fail("doc name", err)
		}
		ix.DocNames = append(ix.DocNames, name)
	}
	return d.readPackedNodes(ix, arena)
}

// readPackedNodes decodes the writeMeta node image, checks it and expands
// it into ix.cols (dagImage.expand). The columns must pass the full
// validation before they are accepted — every accessor indexes blindly,
// so a decoded image that would make one misbehave is rejected here as
// ErrCorrupt. The image itself is dropped.
func (d *decoder) readPackedNodes(ix *Index, arena []byte) error {
	// Every node costs at least one byte somewhere (spine record, shape
	// record amortized over instances, or dispatch coverage); 1 is the only
	// safe per-node floor for a heavily deduplicated table.
	n, err := d.count("node count", 1, 1<<31)
	if err != nil {
		return err
	}
	p := &dagImage{n: int32(n)}

	nSpine, err := d.count("spine count", 8, uint64(n))
	if err != nil {
		return err
	}
	cap8 := func(c int) int { return min(c, preallocCap) }
	p.spLabel = make([]int32, 0, cap8(nSpine))
	p.spCat = make([]uint8, 0, cap8(nSpine))
	p.spChild = make([]int32, 0, cap8(nSpine))
	p.spSubtree = make([]int32, 0, cap8(nSpine))
	p.spParent = make([]int32, 0, cap8(nSpine))
	p.spLast = make([]int32, 0, cap8(nSpine))
	p.spDepth = make([]int32, 0, cap8(nSpine))
	p.spVal = make([]int32, 0, cap8(nSpine))
	for i := 0; i < nSpine; i++ {
		label, err := d.i32("spine label", 0)
		if err != nil {
			return err
		}
		cat, err := d.br.ReadByte()
		if err != nil {
			return fail("spine category", err)
		}
		child, err := d.i32("spine child count", 0)
		if err != nil {
			return err
		}
		subtree, err := d.i32("spine subtree", 0)
		if err != nil {
			return err
		}
		parent, err := d.i32("spine parent", 1)
		if err != nil {
			return err
		}
		last, err := d.i32("spine last component", 0)
		if err != nil {
			return err
		}
		depth, err := d.i32("spine depth", 0)
		if err != nil {
			return err
		}
		val, err := d.i32("spine value id", 1)
		if err != nil {
			return err
		}
		p.spLabel = append(p.spLabel, label)
		p.spCat = append(p.spCat, cat)
		p.spChild = append(p.spChild, child)
		p.spSubtree = append(p.spSubtree, subtree)
		p.spParent = append(p.spParent, parent)
		p.spLast = append(p.spLast, last)
		p.spDepth = append(p.spDepth, depth)
		p.spVal = append(p.spVal, val)
	}

	nInst, err := d.count("instance count", 5, uint64(n))
	if err != nil {
		return err
	}
	p.inStart = make([]int32, 0, cap8(nInst))
	p.inShape = make([]int32, 0, cap8(nInst))
	p.inParent = make([]int32, 0, cap8(nInst))
	p.inLast = make([]int32, 0, cap8(nInst))
	p.inDepth = make([]int32, 0, cap8(nInst))
	for i := 0; i < nInst; i++ {
		start, err := d.i32("instance start", 0)
		if err != nil {
			return err
		}
		shape, err := d.i32("instance shape", 0)
		if err != nil {
			return err
		}
		parent, err := d.i32("instance parent", 1)
		if err != nil {
			return err
		}
		last, err := d.i32("instance last component", 0)
		if err != nil {
			return err
		}
		depth, err := d.i32("instance depth", 0)
		if err != nil {
			return err
		}
		p.inStart = append(p.inStart, start)
		p.inShape = append(p.inShape, shape)
		p.inParent = append(p.inParent, parent)
		p.inLast = append(p.inLast, last)
		p.inDepth = append(p.inDepth, depth)
	}

	nShapes, err := d.count("shape count", 9, uint64(n)+1)
	if err != nil {
		return err
	}
	p.shOff = make([]int32, 0, cap8(nShapes+1))
	p.shOff = append(p.shOff, 0)
	for s := 0; s < nShapes; s++ {
		shSize, err := d.count("shape size", 8, uint64(n))
		if err != nil {
			return err
		}
		if shSize < 1 {
			return corruptf("binary load: packed shape %d: empty shape", s)
		}
		for k := 0; k < shSize; k++ {
			label, err := d.i32("shape label", 0)
			if err != nil {
				return err
			}
			cat, err := d.br.ReadByte()
			if err != nil {
				return fail("shape category", err)
			}
			child, err := d.i32("shape child count", 0)
			if err != nil {
				return err
			}
			subtree, err := d.i32("shape subtree", 0)
			if err != nil {
				return err
			}
			parent, err := d.i32("shape parent", 1)
			if err != nil {
				return err
			}
			last, err := d.i32("shape last component", 0)
			if err != nil {
				return err
			}
			depth, err := d.i32("shape depth", 0)
			if err != nil {
				return err
			}
			val, err := d.i32("shape value id", 1)
			if err != nil {
				return err
			}
			p.shLabel = append(p.shLabel, label)
			p.shCat = append(p.shCat, cat)
			p.shChild = append(p.shChild, child)
			p.shSubtree = append(p.shSubtree, subtree)
			p.shParent = append(p.shParent, parent)
			p.shLast = append(p.shLast, last)
			p.shDepth = append(p.shDepth, depth)
			p.shVal = append(p.shVal, val)
		}
		p.shOff = append(p.shOff, int32(len(p.shLabel)))
	}

	nVals, err := d.count("value count", 1, 1<<31)
	if err != nil {
		return err
	}
	arenaLen, err := d.uvarint()
	if err != nil {
		return fail("value arena length", err)
	}
	if arena != nil {
		if arenaLen != uint64(len(arena)) {
			return corruptf("binary load: packed value arena length %d, given %d bytes", arenaLen, len(arena))
		}
		p.valArena = arena
	} else {
		if arenaLen > 1<<31 || (d.size >= 0 && arenaLen > uint64(d.size)) {
			return corruptf("binary load: packed value arena length %d exceeds input", arenaLen)
		}
		p.valArena = make([]byte, arenaLen)
		if _, err := io.ReadFull(d.br, p.valArena); err != nil {
			return fail("value arena", err)
		}
	}
	p.valOff = make([]int32, 0, cap8(nVals+1))
	p.valOff = append(p.valOff, 0)
	off := int64(0)
	for v := 0; v < nVals; v++ {
		l, err := d.uvarint()
		if err != nil {
			return fail("value length", err)
		}
		off += int64(l)
		if off > int64(arenaLen) {
			return corruptf("binary load: packed value lengths overrun arena")
		}
		p.valOff = append(p.valOff, int32(off))
	}
	if off != int64(arenaLen) {
		return corruptf("binary load: packed value lengths cover %d of %d arena bytes", off, arenaLen)
	}

	nRoots, err := d.count("doc root count", 2, uint64(n))
	if err != nil {
		return err
	}
	p.docStart = make([]int32, 0, cap8(nRoots))
	p.docNum = make([]int32, 0, cap8(nRoots))
	for k := 0; k < nRoots; k++ {
		start, err := d.i32("doc root start", 0)
		if err != nil {
			return err
		}
		num, err := d.i32("doc root number", 0)
		if err != nil {
			return err
		}
		p.docStart = append(p.docStart, start)
		p.docNum = append(p.docNum, num)
	}

	c, err := p.expand()
	if err != nil {
		return err
	}
	ix.cols = c
	if err := c.validateLayout(len(ix.Labels)); err != nil {
		return corruptf("binary load: %v", err)
	}
	c.recStart = c.records()
	if err := c.validateRecords(); err != nil {
		return corruptf("binary load: %v", err)
	}
	return nil
}
