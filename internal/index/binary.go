package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/dewey"
	"repro/internal/postings"
)

// Binary index format ("GKSI"): a compact, self-describing serialization
// that stores posting lists delta-varint compressed (internal/postings).
// It is substantially smaller and faster to decode than the legacy gob
// format (v1); Load and LoadFile auto-detect the format from the leading
// magic bytes.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "GKSI" | version
//	labels:   count, then len+bytes each
//	docs:     count, then len+bytes each
//	nodes:    the node table (see writeMetaPacked and readFlatNodes)
//	postings: count, then per keyword:
//	            keyLen keyBytes n deltaVarints...
//	stats:    fixed sequence of varints
const binaryMagic = "GKSI"

// SaveBinary writes version 3, whose node section is the DAG-compressed
// layout of packed.go. Version 2 stored the flat table, one record per
// node — dewey(binary codec) label cat(byte) childCount subtree parent+1
// hasValue(byte) [valueLen valueBytes] — and is still read: the loader
// packs it.
const (
	binaryVersionFlat   = 2
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

// writeMetaPacked writes the labels/docs sections followed by the packed
// node arrays — the part of the format shared between SaveBinary and the
// GKS4 segment meta section. Negative-capable fields are stored +1 so
// plain uvarints suffice. The per-ordinal dispatch array is NOT written:
// instance ranges plus the rule that spine slots are assigned in ascending
// ordinal order (which is how packNodes emits them) reconstruct it exactly.
// When inlineArena is false the value arena's bytes are left out (its
// length is still written): the caller stores them elsewhere.
func (w *binWriter) writeMetaPacked(ix *Index, inlineArena bool) {
	p := ix.packed
	w.uvarint(uint64(len(ix.Labels)))
	for _, l := range ix.Labels {
		w.str(l)
	}
	w.uvarint(uint64(len(ix.DocNames)))
	for _, d := range ix.DocNames {
		w.str(d)
	}

	w.uvarint(uint64(len(p.ordInst)))

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

// The packed-meta version follows the leading 0 of a packed meta section.
// The 0 tells it from the flat layout older writers produced, which starts
// with the label count, at least 1 on any buildable index. Version 1 holds
// the value arena inline (GKS4 version 1); version 2 holds only its length
// and takes the bytes from outside (GKS4 version 2's values section).
const (
	metaInlineArena   = 1
	metaExternalArena = 2
)

// EncodeMeta writes the labels, document names and node table without
// magic framing: a 0 sentinel, packed-meta version 2 and the packed arrays
// without the value arena's bytes, which it returns for the caller to
// store. This is the GKS4 segment meta section (internal/segment);
// DecodeMeta is its inverse. The returned arena is the index's own and
// must not be modified. A tombstoned index must be compacted by the caller
// first.
func EncodeMeta(w io.Writer, ix *Index) (arena []byte, err error) {
	bw := &binWriter{bw: bufio.NewWriter(w)}
	bw.uvarint(0)
	bw.uvarint(metaExternalArena)
	bw.writeMetaPacked(ix, false)
	// Non-nil even when empty: DecodeMeta tells the two meta versions
	// apart by whether an arena is given.
	arena = ix.packed.valArena
	if arena == nil {
		arena = []byte{}
	}
	return arena, bw.bw.Flush()
}

// SaveBinary writes the index in the compact binary format. A tombstoned
// index is compacted first — the on-disk formats have no notion of a
// delete mask — and a lazily-backed index streams its lists from the
// source one at a time, so serializing never materializes the postings.
func (ix *Index) SaveBinary(w io.Writer) error {
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

// loadBinaryAfterMagic decodes a GKSI stream whose magic has been consumed;
// size bounds the bytes plausibly remaining in br (< 0 when unknown).
func loadBinaryAfterMagic(br *bufio.Reader, size int64) (*Index, error) {
	d := &decoder{br: br, size: size}
	version, err := d.uvarint()
	if err != nil {
		return nil, fail("version", err)
	}
	if version != binaryVersionFlat && version != binaryVersionPacked {
		return nil, corruptf("binary load: unsupported version %d", version)
	}
	ix := &Index{Postings: make(map[string][]int32), labelIDs: make(map[string]int32)}
	if err := d.readMeta(ix, version == binaryVersionPacked, nil); err != nil {
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
// into a fresh packed Index with no posting lists and zero statistics —
// the skeleton internal/segment hands to NewLazy. arena is the value arena
// EncodeMeta returned, and becomes the index's own; it must be nil for a
// meta section that holds its arena inline (packed-meta version 1, or a
// flat meta section from an older writer, which is packed on the way in).
// size bounds allocations as in Load; damaged input fails with ErrCorrupt.
func DecodeMeta(r io.Reader, size int64, arena []byte) (*Index, error) {
	d := &decoder{br: bufio.NewReader(r), size: size}
	lead, err := d.br.Peek(1)
	if err != nil {
		return nil, corruptf("binary load: meta lead: %v", err)
	}
	packed, external := lead[0] == 0, false
	if packed {
		d.br.Discard(1)
		ver, err := d.uvarint()
		if err != nil {
			return nil, corruptf("binary load: packed meta version: %v", err)
		}
		if ver != metaInlineArena && ver != metaExternalArena {
			return nil, corruptf("binary load: unsupported packed meta version %d", ver)
		}
		external = ver == metaExternalArena
	}
	if external && arena == nil {
		return nil, corruptf("binary load: packed meta version %d needs its value arena", metaExternalArena)
	}
	if !external && arena != nil {
		return nil, corruptf("binary load: meta holds its value arena inline, but one was given")
	}
	ix := &Index{labelIDs: make(map[string]int32)}
	if err := d.readMeta(ix, packed, arena); err != nil {
		return nil, err
	}
	return ix, nil
}

// readMeta decodes the labels, document names and node table into ix. A
// non-nil arena replaces the packed table's inline value arena.
func (d *decoder) readMeta(ix *Index, packed bool, arena []byte) error {
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
	if packed {
		return d.readPackedNodes(ix, arena)
	}
	return d.readFlatNodes(ix)
}

// readFlatNodes decodes a version-2 flat node table — one record per node
// — and packs it.
func (d *decoder) readFlatNodes(ix *Index) error {
	// A serialized node is at least 8 bytes (2 dewey varints + label +
	// category + child count + subtree + parent + has-value flag).
	nNodes, err := d.count("node count", 8, 1<<31)
	if err != nil {
		return err
	}
	ix.nodes = make([]NodeInfo, 0, min(nNodes, preallocCap))
	for i := 0; i < nNodes; i++ {
		var n NodeInfo
		if n.ID, err = readDewey(d.br); err != nil {
			return fail("dewey", err)
		}
		if n.Label, err = d.i32("node label", 0); err != nil {
			return err
		}
		cat, err := d.br.ReadByte()
		if err != nil {
			return fail("node category", err)
		}
		n.Cat = Category(cat)
		if n.ChildCount, err = d.i32("child count", 0); err != nil {
			return err
		}
		if n.Subtree, err = d.i32("subtree", 0); err != nil {
			return err
		}
		if n.Parent, err = d.i32("parent", 1); err != nil {
			return err
		}
		hv, err := d.br.ReadByte()
		if err != nil {
			return fail("has-value flag", err)
		}
		if hv == 1 {
			n.HasValue = true
			if n.Value, err = d.str(); err != nil {
				return fail("value", err)
			}
		}
		ix.nodes = append(ix.nodes, n)
	}
	return ix.packImported()
}

// packImported packs the flat table of a legacy image — flat GKSI v2, gob
// v1 or a flat GKS4 meta section, the only places a flat table is read.
// packNodes walks subtree ranges and Dewey paths blindly, so those are
// checked first; the packed result must then pass the full validation.
func (ix *Index) packImported() error {
	n := len(ix.nodes)
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		if nd.Subtree < 1 || int64(i)+int64(nd.Subtree) > int64(n) {
			return corruptf("binary load: flat node %d: subtree size %d overruns %d nodes", i, nd.Subtree, n)
		}
		if len(nd.ID.Path) == 0 {
			return corruptf("binary load: flat node %d: empty Dewey path", i)
		}
	}
	if err := ix.pack().validateNodes(); err != nil {
		return corruptf("binary load: %v", err)
	}
	return nil
}

// readPackedNodes decodes the writeMetaPacked node arrays into ix.packed. The
// per-ordinal dispatch array is reconstructed from the instance ranges
// and the ascending-ordinal spine rule, and the result must pass the full
// packed validation before it is accepted — the O(1) accessors index
// blindly, so a decoded image that would make them misbehave is rejected
// here as ErrCorrupt.
func (d *decoder) readPackedNodes(ix *Index, arena []byte) error {
	// Every node costs at least one byte somewhere (spine record, shape
	// record amortized over instances, or dispatch coverage); 1 is the only
	// safe per-node floor for a heavily deduplicated table.
	n, err := d.count("node count", 1, 1<<31)
	if err != nil {
		return err
	}
	p := &packedNodes{}
	// A loaded table starts a fresh delta-append lineage: debt counters
	// are not serialized (they only drive repack scheduling), so a loaded
	// image owes nothing until it delta-appends again.
	p.app = &appendState{owner: p}

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

	// Reconstruct the dispatch array: instance ranges claim their spans,
	// the remaining ordinals take spine slots in ascending order.
	p.ordInst = make([]int32, n)
	for ord := range p.ordInst {
		p.ordInst[ord] = -1 << 31 // poison: must be overwritten below
	}
	for i := int32(0); i < int32(len(p.inStart)); i++ {
		s := p.inShape[i]
		if s < 0 || int(s) >= nShapes {
			return corruptf("binary load: packed instance %d: shape %d out of range", i, s)
		}
		sz := p.shOff[s+1] - p.shOff[s]
		start := p.inStart[i]
		if start < 0 || int64(start)+int64(sz) > int64(n) {
			return corruptf("binary load: packed instance %d: range overruns node table", i)
		}
		for k := int32(0); k < sz; k++ {
			if p.ordInst[start+k] != -1<<31 {
				return corruptf("binary load: packed instance %d overlaps another", i)
			}
			p.ordInst[start+k] = i
		}
	}
	slot := int32(0)
	for ord := range p.ordInst {
		if p.ordInst[ord] == -1<<31 {
			if int(slot) >= nSpine {
				return corruptf("binary load: packed table needs more than %d spine slots", nSpine)
			}
			p.ordInst[ord] = ^slot
			slot++
		}
	}
	if int(slot) != nSpine {
		return corruptf("binary load: packed table uses %d of %d spine slots", slot, nSpine)
	}

	ix.packed = p
	if err := p.validateLayout(); err != nil {
		return corruptf("binary load: %v", err)
	}
	p.recStart = p.appendRecords(nil, 0)
	if err := p.validateRecords(); err != nil {
		return corruptf("binary load: %v", err)
	}
	if err := ix.validateLabels(); err != nil {
		return corruptf("binary load: %v", err)
	}
	return nil
}

// readDewey decodes one varint-framed Dewey ID from the reader.
func readDewey(br *bufio.Reader) (dewey.ID, error) {
	doc, err := binary.ReadUvarint(br)
	if err != nil {
		return dewey.ID{}, err
	}
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return dewey.ID{}, err
	}
	if length > 1<<20 {
		return dewey.ID{}, fmt.Errorf("implausible path length %d", length)
	}
	path := make([]int32, length)
	for i := range path {
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return dewey.ID{}, err
		}
		path[i] = int32(uint32(c))
	}
	return dewey.ID{Doc: int32(uint32(doc)), Path: path}, nil
}
