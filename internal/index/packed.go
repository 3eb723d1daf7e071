package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dewey"
)

// DAG-compressed node table (ROADMAP item 4, after "Efficient XML Keyword
// Search based on DAG-Compression", Böttcher et al.): a structure-of-arrays
// replacement for the []NodeInfo hot path that (1) stores only the trailing
// Dewey component per node — full paths are rebuilt by the parent-chain
// walk the engine already performs for LCA — and every Value string in one
// shared interned arena, and (2) deduplicates identical element subtrees:
// each repeated subtree's *shape* (labels, categories, child structure,
// values and the sibling Dewey offsets of its element children) is stored
// once in a shape table, and an instance table maps pre-order ordinal
// ranges onto shapes. The window/LCP engine keeps running over plain
// instance ordinals — resolution from ordinal to node fields is O(1) via a
// 4-byte-per-node dispatch array — and expansion to a full NodeInfo (Dewey
// path included) happens lazily at result-lift/snippet time.
//
// It is the only node table an index serves from. Builders fill a flat
// []NodeInfo and pack it (pack, packing); deletes tombstone against the
// packed table, appends extend it in place (packed_append.go), and the
// paths that must rewrite rows — compaction, a full repack, schema
// re-categorization — expand the rows they keep, edit them flat and pack
// the result.
//
// Layout. Every ordinal is either a *spine* node (stored individually) or
// part of an *instance* (a subtree that shares a shape with at least one
// other subtree). ordInst[ord] >= 0 names the instance; ordInst[ord] < 0
// encodes the spine slot as ^v. An instance covers the contiguous ordinal
// range [inStart[i], inStart[i]+shape size); the k-th node of the range is
// the k-th pre-order node of the shape. Because the packing scan only
// descends into spine nodes and skips whole instance subtrees, an instance
// root's parent is always a spine node — per-instance data is therefore
// just (start, shape, parent ordinal, trailing Dewey component, depth).
type packedNodes struct {
	// ordInst dispatches an ordinal: >= 0 → instance index, < 0 → spine
	// index ^v.
	ordInst []int32

	// Spine arrays, indexed by spine slot.
	spLabel   []int32
	spCat     []uint8
	spChild   []int32
	spSubtree []int32
	spParent  []int32 // global parent ordinal, -1 at a document root
	spLast    []int32 // trailing Dewey path component
	spDepth   []int32
	spVal     []int32 // value id, -1 when the node has no direct text

	// Instance arrays, indexed by instance.
	inStart  []int32 // first ordinal of the instance's subtree range
	inShape  []int32
	inParent []int32 // global parent ordinal of the instance root (spine)
	inLast   []int32 // trailing Dewey component of the instance root
	inDepth  []int32 // absolute depth of the instance root

	// Shape arrays: shOff[s]..shOff[s+1] delimit shape s's pre-order node
	// records. Within a shape, parents are shape-relative offsets and
	// depths are relative to the shape root; shLast of the shape root is
	// unused (the root's component is per-instance).
	shOff     []int32
	shLabel   []int32
	shCat     []uint8
	shChild   []int32
	shSubtree []int32
	shParent  []int32 // shape-relative parent offset, -1 at the shape root
	shLast    []int32
	shDepth   []int32
	shVal     []int32 // value id, -1 when absent

	// Interned value arena: value id v spans valArena[valOff[v]:valOff[v+1]].
	valOff   []int32
	valArena []byte

	// Document roots in ordinal order: docStart[k] is the root ordinal of
	// the k-th document in the table, docNum[k] its Dewey document number.
	docStart []int32
	docNum   []int32

	// Record bounds in ordinal order: every document root and every
	// depth-1 node. Record k spans [recStart[k], recStart[k+1]), the last
	// one ends at the node count; a root's record is the root alone, a
	// depth-1 node's is its subtree. Every response node lies inside one
	// depth-1 record (a root is never a response), which is what the
	// threshold merge and the window stage key on. Derived from subtree
	// sizes wherever docStart is filled, never serialized.
	recStart []int32

	// Delta-append bookkeeping (see packed_append.go). deltaNodes and
	// deltaDocs count what the delta path appended since the last full
	// pack — the repack policy's debt numerator. app carries the lineage's
	// append claim and lookup sidecar; it travels by pointer across
	// delta-appended generations and is never serialized (a loaded table
	// starts a fresh lineage with zero debt).
	deltaNodes int
	deltaDocs  int
	app        *appendState
}

// NodeCount returns the number of element nodes (rows) in the table,
// tombstoned rows included.
func (ix *Index) NodeCount() int { return len(ix.packed.ordInst) }

// --- O(1) per-ordinal field resolution ---------------------------------

func (p *packedNodes) shapeSlot(ord int32) (int32, int32) {
	i := p.ordInst[ord]
	return i, p.shOff[p.inShape[i]] + (ord - p.inStart[i])
}

func (p *packedNodes) labelOf(ord int32) int32 {
	if v := p.ordInst[ord]; v < 0 {
		return p.spLabel[^v]
	}
	_, s := p.shapeSlot(ord)
	return p.shLabel[s]
}

func (p *packedNodes) catOf(ord int32) Category {
	if v := p.ordInst[ord]; v < 0 {
		return Category(p.spCat[^v])
	}
	_, s := p.shapeSlot(ord)
	return Category(p.shCat[s])
}

func (p *packedNodes) childCountOf(ord int32) int32 {
	if v := p.ordInst[ord]; v < 0 {
		return p.spChild[^v]
	}
	_, s := p.shapeSlot(ord)
	return p.shChild[s]
}

func (p *packedNodes) subtreeOf(ord int32) int32 {
	if v := p.ordInst[ord]; v < 0 {
		return p.spSubtree[^v]
	}
	_, s := p.shapeSlot(ord)
	return p.shSubtree[s]
}

func (p *packedNodes) parentOf(ord int32) int32 {
	v := p.ordInst[ord]
	if v < 0 {
		return p.spParent[^v]
	}
	i := v
	k := ord - p.inStart[i]
	if k == 0 {
		return p.inParent[i]
	}
	s := p.shOff[p.inShape[i]]
	return p.inStart[i] + p.shParent[s+k]
}

func (p *packedNodes) depthOf(ord int32) int32 {
	if v := p.ordInst[ord]; v < 0 {
		return p.spDepth[^v]
	}
	i, s := p.shapeSlot(ord)
	return p.inDepth[i] + p.shDepth[s]
}

func (p *packedNodes) lastOf(ord int32) int32 {
	v := p.ordInst[ord]
	if v < 0 {
		return p.spLast[^v]
	}
	i := v
	if ord == p.inStart[i] {
		return p.inLast[i]
	}
	_, s := p.shapeSlot(ord)
	return p.shLast[s]
}

func (p *packedNodes) valIDOf(ord int32) int32 {
	if v := p.ordInst[ord]; v < 0 {
		return p.spVal[^v]
	}
	_, s := p.shapeSlot(ord)
	return p.shVal[s]
}

func (p *packedNodes) value(id int32) string {
	return string(p.valArena[p.valOff[id]:p.valOff[id+1]])
}

// docSlot returns the position in the root table of the document
// containing ord, by binary search.
func (p *packedNodes) docSlot(ord int32) int {
	lo, hi := 0, len(p.docStart)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.docStart[mid] <= ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// docOf returns the Dewey document number of the document containing ord.
func (p *packedNodes) docOf(ord int32) int32 { return p.docNum[p.docSlot(ord)] }

// appendPath appends ord's full Dewey path to buf by walking the parent
// chain; depths are O(1) so the slice is sized once.
func (p *packedNodes) appendPath(ord int32, buf []int32) []int32 {
	d := int(p.depthOf(ord)) + 1
	n := len(buf)
	for i := 0; i < d; i++ {
		buf = append(buf, 0)
	}
	for cur := ord; d > 0; d-- {
		buf[n+d-1] = p.lastOf(cur)
		cur = p.parentOf(cur)
	}
	return buf
}

func (p *packedNodes) idOf(ord int32) dewey.ID {
	return dewey.ID{Doc: p.docOf(ord), Path: p.appendPath(ord, nil)}
}

// compareID orders ord's Dewey ID against id without materializing a path
// allocation (OrdinalOf probes this O(log n) times per lookup).
func (p *packedNodes) compareID(ord int32, id dewey.ID) int {
	if doc := p.docOf(ord); doc != id.Doc {
		if doc < id.Doc {
			return -1
		}
		return 1
	}
	var scratch [64]int32
	path := p.appendPath(ord, scratch[:0])
	for i := 0; i < len(path) && i < len(id.Path); i++ {
		if path[i] != id.Path[i] {
			if path[i] < id.Path[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(path) < len(id.Path):
		return -1
	case len(path) > len(id.Path):
		return 1
	}
	return 0
}

// nodeInfo materializes the full NodeInfo of ord — the expansion the
// row-rewriting paths (flat, unpack) edit before packing again.
func (p *packedNodes) nodeInfo(ord int32) NodeInfo {
	n := NodeInfo{
		ID:         p.idOf(ord),
		Label:      p.labelOf(ord),
		Cat:        p.catOf(ord),
		ChildCount: p.childCountOf(ord),
		Subtree:    p.subtreeOf(ord),
		Parent:     p.parentOf(ord),
	}
	if v := p.valIDOf(ord); v >= 0 {
		n.HasValue = true
		n.Value = p.value(v)
	}
	return n
}

// --- packing ------------------------------------------------------------

// unpack expands every row of the table, tombstoned ones included, into
// the builders' flat form; ordinals are unchanged.
func (p *packedNodes) unpack() []NodeInfo {
	nodes := make([]NodeInfo, len(p.ordInst))
	for ord := range nodes {
		nodes[ord] = p.nodeInfo(int32(ord))
	}
	return nodes
}

// pack replaces the builders' flat table with the packed one, in place,
// and returns ix. Packing is deterministic: equal flat tables pack to equal
// packed tables.
func (ix *Index) pack() *Index {
	ix.packed = packNodes(ix.nodes)
	ix.nodes = nil
	return ix
}

// packing packs a builder's result, passing its error through.
func packing(ix *Index, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	return ix.pack(), nil
}

// SetCategories installs cats — one category per ordinal, as
// schema.Summary.Categorize computes them — on the live nodes and returns
// how many of them changed. The rows are expanded, edited and packed again
// in place: ordinals, the tombstone mask and the postings stay as they are,
// so an engine bound to ix sees the new categories at once. Tombstoned rows
// keep theirs. The category statistics are refreshed.
func (ix *Index) SetCategories(cats []Category) int {
	nodes := ix.packed.unpack()
	changed := 0
	for _, sp := range ix.LiveSpans() {
		for ord := sp[0]; ord < sp[1]; ord++ {
			if nodes[ord].Cat != cats[ord] {
				nodes[ord].Cat = cats[ord]
				changed++
			}
		}
	}
	if changed > 0 {
		ix.packed = packNodes(nodes)
	}
	ix.refreshCategoryStats()
	return changed
}

// packNodes builds the packed representation from a flat pre-order table.
//
// Pass 1 interns values (first-encounter order) and computes a structural
// shape id per node bottom-up: the shape key covers the node's label,
// category, child count, value id and, for each element child, the child's
// shape id *and* its trailing Dewey component — text-node interleaving
// shifts sibling components, so two subtrees are shape-equal only when
// their element layout relative to text children matches too. Interning is
// exact (keyed on the canonical encoding, not a hash), so distinct
// subtrees can never be merged.
//
// Pass 2 scans top-down: a node whose shape occurs at least twice becomes
// an instance and its whole subtree is skipped (so nested repeats dedup at
// the outermost level); everything else is spine and the scan descends.
func packNodes(nodes []NodeInfo) *packedNodes {
	packCount.Add(1)
	n := int32(len(nodes))
	p := &packedNodes{ordInst: make([]int32, n)}
	p.app = &appendState{owner: p}

	// Value interning.
	valIDs := make(map[string]int32)
	valOf := make([]int32, n)
	for ord := int32(0); ord < n; ord++ {
		nd := &nodes[ord]
		if !nd.HasValue {
			valOf[ord] = -1
			continue
		}
		id, ok := valIDs[nd.Value]
		if !ok {
			id = int32(len(p.valOff))
			valIDs[nd.Value] = id
			p.valOff = append(p.valOff, int32(len(p.valArena)))
			p.valArena = append(p.valArena, nd.Value...)
		}
		valOf[ord] = id
	}
	p.valOff = append(p.valOff, int32(len(p.valArena)))

	// Bottom-up shape interning. Children have higher ordinals than their
	// parents in pre-order, so a reverse sweep sees every child's shape
	// before the parent needs it.
	shapeIDs := make(map[string]int32)
	shapeOf := make([]int32, n)
	shapeCount := make([]int32, 0, 1024)
	var key []byte
	for ord := n - 1; ord >= 0; ord-- {
		nd := &nodes[ord]
		key = binary.AppendUvarint(key[:0], uint64(nd.Label))
		key = append(key, byte(nd.Cat))
		key = binary.AppendUvarint(key, uint64(nd.ChildCount))
		key = binary.AppendUvarint(key, uint64(valOf[ord]+1))
		for c := ord + 1; c < ord+nd.Subtree; c += nodes[c].Subtree {
			key = binary.AppendUvarint(key, uint64(shapeOf[c]))
			key = binary.AppendUvarint(key, uint64(uint32(lastComp(&nodes[c]))))
		}
		sid, ok := shapeIDs[string(key)]
		if !ok {
			sid = int32(len(shapeCount))
			shapeIDs[string(key)] = sid
			shapeCount = append(shapeCount, 0)
		}
		shapeOf[ord] = sid
		shapeCount[sid]++
	}

	// Top-down instance selection. canon maps a raw shape id to its
	// emitted shape-table index, assigned in first-instance order so the
	// result is deterministic.
	canon := make(map[int32]int32)
	for ord := int32(0); ord < n; {
		nd := &nodes[ord]
		sid := shapeOf[ord]
		if shapeCount[sid] < 2 {
			slot := int32(len(p.spLabel))
			p.ordInst[ord] = ^slot
			p.spLabel = append(p.spLabel, nd.Label)
			p.spCat = append(p.spCat, uint8(nd.Cat))
			p.spChild = append(p.spChild, nd.ChildCount)
			p.spSubtree = append(p.spSubtree, nd.Subtree)
			p.spParent = append(p.spParent, nd.Parent)
			p.spLast = append(p.spLast, lastComp(nd))
			p.spDepth = append(p.spDepth, int32(nd.ID.Depth()))
			p.spVal = append(p.spVal, valOf[ord])
			ord++
			continue
		}
		cs, ok := canon[sid]
		if !ok {
			// First instance of this shape: emit the shape's node records
			// from this occurrence. Parents and depths become relative to
			// the shape root.
			cs = int32(len(p.shOff))
			canon[sid] = cs
			p.shOff = append(p.shOff, int32(len(p.shLabel)))
			for k := int32(0); k < nd.Subtree; k++ {
				m := &nodes[ord+k]
				p.shLabel = append(p.shLabel, m.Label)
				p.shCat = append(p.shCat, uint8(m.Cat))
				p.shChild = append(p.shChild, m.ChildCount)
				p.shSubtree = append(p.shSubtree, m.Subtree)
				rel := int32(-1)
				if k > 0 {
					rel = m.Parent - ord
				}
				p.shParent = append(p.shParent, rel)
				p.shLast = append(p.shLast, lastComp(m))
				p.shDepth = append(p.shDepth, int32(m.ID.Depth()-nd.ID.Depth()))
				p.shVal = append(p.shVal, valOf[ord+k])
			}
		}
		inst := int32(len(p.inStart))
		p.inStart = append(p.inStart, ord)
		p.inShape = append(p.inShape, cs)
		p.inParent = append(p.inParent, nd.Parent)
		p.inLast = append(p.inLast, lastComp(nd))
		p.inDepth = append(p.inDepth, int32(nd.ID.Depth()))
		for k := int32(0); k < nd.Subtree; k++ {
			p.ordInst[ord+k] = inst
		}
		ord += nd.Subtree
	}
	p.shOff = append(p.shOff, int32(len(p.shLabel)))

	// Document roots.
	for ord := int32(0); ord < n; ord += nodes[ord].Subtree {
		p.docStart = append(p.docStart, ord)
		p.docNum = append(p.docNum, nodes[ord].ID.Doc)
	}
	p.recStart = p.appendRecords(nil, 0)
	return p
}

// appendRecords appends to dst the record bounds of the documents whose
// roots are docStart[from:]: each root, then the start of each of its
// children. A root's walk stops at the next root, so a subtree size that
// overruns its document cannot make the walk quadratic; validateRecords
// rejects such a table.
func (p *packedNodes) appendRecords(dst []int32, from int) []int32 {
	n := int32(len(p.ordInst))
	for k := from; k < len(p.docStart); k++ {
		root := p.docStart[k]
		end := min(root+p.subtreeOf(root), n)
		if k+1 < len(p.docStart) {
			end = min(end, p.docStart[k+1])
		}
		dst = append(dst, root)
		for ord := root + 1; ord < end; ord += p.subtreeOf(ord) {
			dst = append(dst, ord)
		}
	}
	return dst
}

// Records returns the record bounds of the node table: the sorted
// ordinals of every document root and every depth-1 node. Record k spans
// [Records()[k], Records()[k+1]), the last one ends at NodeCount. The
// slice is shared; callers must not modify it.
func (ix *Index) Records() []int32 { return ix.packed.recStart }

func lastComp(n *NodeInfo) int32 { return n.ID.Path[len(n.ID.Path)-1] }

// --- accounting ---------------------------------------------------------

// NodeTableBytes returns the exact heap footprint of the packed node
// table's arrays. This is the benchmark's index.node_table_mib — computed,
// not sampled, so it is stable across GC timing.
func (ix *Index) NodeTableBytes() int64 {
	p := ix.packed
	b := int64(len(p.ordInst)) * 4
	b += int64(len(p.spLabel))*4 + int64(len(p.spCat)) + int64(len(p.spChild))*4 +
		int64(len(p.spSubtree))*4 + int64(len(p.spParent))*4 + int64(len(p.spLast))*4 +
		int64(len(p.spDepth))*4 + int64(len(p.spVal))*4
	b += int64(len(p.inStart))*4 + int64(len(p.inShape))*4 + int64(len(p.inParent))*4 +
		int64(len(p.inLast))*4 + int64(len(p.inDepth))*4
	b += int64(len(p.shOff))*4 + int64(len(p.shLabel))*4 + int64(len(p.shCat)) +
		int64(len(p.shChild))*4 + int64(len(p.shSubtree))*4 + int64(len(p.shParent))*4 +
		int64(len(p.shLast))*4 + int64(len(p.shDepth))*4 + int64(len(p.shVal))*4
	b += int64(len(p.valOff))*4 + int64(len(p.valArena))
	b += int64(len(p.docStart))*4 + int64(len(p.docNum))*4 + int64(len(p.recStart))*4
	return b
}

// validateNodes checks the packed table's structure and that every label
// id it holds names an entry of Labels.
func (ix *Index) validateNodes() error {
	if err := ix.packed.validatePacked(); err != nil {
		return err
	}
	return ix.validateLabels()
}

// validateLabels checks that every label id of the packed table names an
// entry of Labels.
func (ix *Index) validateLabels() error {
	p := ix.packed
	for _, arr := range [][]int32{p.spLabel, p.shLabel} {
		for i, l := range arr {
			if l < 0 || int(l) >= len(ix.Labels) {
				return fmt.Errorf("packed node record %d: label %d out of range [0,%d)", i, l, len(ix.Labels))
			}
		}
	}
	return nil
}

// validatePacked checks the structural invariants of the packed arrays:
// parents precede children, subtree ranges stay inside the table and
// every cross-array index is in range. Every derived lookup
// (shapeSlot, parentOf, docOf) indexes blindly for speed, so a decoded
// packed image must pass here before it serves.
func (p *packedNodes) validatePacked() error {
	if err := p.validateLayout(); err != nil {
		return err
	}
	return p.validateRecords()
}

// validateLayout checks everything validatePacked does but the record
// column, which is derived from the layout it checks.
func (p *packedNodes) validateLayout() error {
	n := int32(len(p.ordInst))
	nSpine := int32(len(p.spLabel))
	nInst := int32(len(p.inStart))
	nShapes := int32(len(p.shOff)) - 1
	nShapeNodes := int32(len(p.shLabel))
	nVals := int32(len(p.valOff)) - 1

	if nShapes < 0 || nVals < 0 {
		return fmt.Errorf("packed table: missing offset sentinel")
	}
	for _, ls := range [][2]int{
		{len(p.spCat), int(nSpine)}, {len(p.spChild), int(nSpine)},
		{len(p.spSubtree), int(nSpine)}, {len(p.spParent), int(nSpine)},
		{len(p.spLast), int(nSpine)}, {len(p.spDepth), int(nSpine)},
		{len(p.spVal), int(nSpine)},
		{len(p.inShape), int(nInst)}, {len(p.inParent), int(nInst)},
		{len(p.inLast), int(nInst)}, {len(p.inDepth), int(nInst)},
		{len(p.shCat), int(nShapeNodes)}, {len(p.shChild), int(nShapeNodes)},
		{len(p.shSubtree), int(nShapeNodes)}, {len(p.shParent), int(nShapeNodes)},
		{len(p.shLast), int(nShapeNodes)}, {len(p.shDepth), int(nShapeNodes)},
		{len(p.shVal), int(nShapeNodes)},
		{len(p.docNum), len(p.docStart)},
	} {
		if ls[0] != ls[1] {
			return fmt.Errorf("packed table: parallel array length mismatch (%d vs %d)", ls[0], ls[1])
		}
	}
	prev := int32(0)
	for s := int32(0); s <= nShapes; s++ {
		off := p.shOff[s]
		if off < prev || off > nShapeNodes {
			return fmt.Errorf("packed table: shape offset %d out of order", off)
		}
		prev = off
	}
	prev = 0
	for v := int32(0); v <= nVals; v++ {
		off := p.valOff[v]
		if off < prev || int(off) > len(p.valArena) {
			return fmt.Errorf("packed table: value offset %d out of order", off)
		}
		prev = off
	}
	for i := int32(0); i < nInst; i++ {
		s := p.inShape[i]
		if s < 0 || s >= nShapes {
			return fmt.Errorf("packed table: instance %d: shape %d out of range [0,%d)", i, s, nShapes)
		}
		size := p.shOff[s+1] - p.shOff[s]
		if size < 1 {
			return fmt.Errorf("packed table: shape %d is empty", s)
		}
		start := p.inStart[i]
		if start < 0 || int64(start)+int64(size) > int64(n) {
			return fmt.Errorf("packed table: instance %d: range [%d,%d) overruns %d nodes", i, start, start+size, n)
		}
		if par := p.inParent[i]; par < -1 || par >= start {
			return fmt.Errorf("packed table: instance %d: parent %d is not a preceding ordinal", i, par)
		}
		if p.inDepth[i] < 0 {
			return fmt.Errorf("packed table: instance %d: negative depth", i)
		}
	}
	for k := int32(0); k < nShapeNodes; k++ {
		if p.shVal[k] < -1 || p.shVal[k] >= nVals {
			return fmt.Errorf("packed table: shape node %d: value id %d out of range [−1,%d)", k, p.shVal[k], nVals)
		}
		if p.shSubtree[k] < 1 {
			return fmt.Errorf("packed table: shape node %d: subtree size %d < 1", k, p.shSubtree[k])
		}
		if p.shChild[k] < 0 || p.shDepth[k] < 0 {
			return fmt.Errorf("packed table: shape node %d: negative child count or depth", k)
		}
	}
	for s := int32(0); s < nShapes; s++ {
		base, end := p.shOff[s], p.shOff[s+1]
		if p.shParent[base] != -1 {
			return fmt.Errorf("packed table: shape %d: root parent %d != -1", s, p.shParent[base])
		}
		if p.shDepth[base] != 0 {
			return fmt.Errorf("packed table: shape %d: root depth %d != 0", s, p.shDepth[base])
		}
		if p.shSubtree[base] != end-base {
			return fmt.Errorf("packed table: shape %d: root subtree %d != shape size %d", s, p.shSubtree[base], end-base)
		}
		for k := base + 1; k < end; k++ {
			rel := p.shParent[k]
			if rel < 0 || rel >= k-base {
				return fmt.Errorf("packed table: shape %d node %d: parent offset %d is not a preceding offset", s, k-base, rel)
			}
			if int64(k-base)+int64(p.shSubtree[k]) > int64(end-base) {
				return fmt.Errorf("packed table: shape %d node %d: subtree overruns shape", s, k-base)
			}
		}
	}
	for v := int32(0); v < nSpine; v++ {
		if p.spVal[v] < -1 || p.spVal[v] >= nVals {
			return fmt.Errorf("packed table: spine %d: value id %d out of range [−1,%d)", v, p.spVal[v], nVals)
		}
		if p.spSubtree[v] < 1 || p.spChild[v] < 0 || p.spDepth[v] < 0 {
			return fmt.Errorf("packed table: spine %d: negative or zero structural field", v)
		}
	}
	// The dispatch array must tile [0,n) consistently: spine slots and
	// instance ranges must agree with the arrays they point to.
	seenInst := int32(-1)
	for ord := int32(0); ord < n; ord++ {
		v := p.ordInst[ord]
		if v < 0 {
			slot := ^v
			if slot >= nSpine {
				return fmt.Errorf("packed table: ordinal %d: spine slot %d out of range [0,%d)", ord, slot, nSpine)
			}
			if par := p.spParent[slot]; par < -1 || par >= ord {
				return fmt.Errorf("packed table: ordinal %d: parent %d is not a preceding ordinal", ord, par)
			}
			if int64(ord)+int64(p.spSubtree[slot]) > int64(n) {
				return fmt.Errorf("packed table: ordinal %d: subtree overruns %d nodes", ord, n)
			}
			continue
		}
		if v >= nInst {
			return fmt.Errorf("packed table: ordinal %d: instance %d out of range [0,%d)", ord, v, nInst)
		}
		if k := ord - p.inStart[v]; k < 0 || k >= p.shOff[p.inShape[v]+1]-p.shOff[p.inShape[v]] {
			return fmt.Errorf("packed table: ordinal %d: outside instance %d's range", ord, v)
		}
		if v != seenInst && ord != p.inStart[v] {
			return fmt.Errorf("packed table: instance %d entered mid-range at ordinal %d", v, ord)
		}
		seenInst = v
	}
	if len(p.docStart) == 0 && n > 0 {
		return fmt.Errorf("packed table: no document roots for %d nodes", n)
	}
	prev = -1
	for k, start := range p.docStart {
		if start < 0 || start >= n || start <= prev {
			return fmt.Errorf("packed table: document root %d out of order or out of range", start)
		}
		if p.ordInst[start] < 0 {
			if p.spParent[^p.ordInst[start]] != -1 {
				return fmt.Errorf("packed table: document root ordinal %d has a parent", start)
			}
		} else if p.inParent[p.ordInst[start]] != -1 || p.inStart[p.ordInst[start]] != start {
			return fmt.Errorf("packed table: document root ordinal %d has a parent", start)
		}
		if k > 0 && p.docNum[k] <= p.docNum[k-1] {
			return fmt.Errorf("packed table: document numbers out of order at root %d", start)
		}
		prev = start
	}
	return nil
}

// validateRecords checks the record column against the layout: the
// bounds tile [0, n) in order, a root's record is the root alone and
// ends where its first child or the next document begins, a depth-1
// record is exactly its node's subtree, and each document ends where the
// next root's record begins. The window stage's climb stops at a record
// root on the strength of these.
func (p *packedNodes) validateRecords() error {
	n := int32(len(p.ordInst))
	if n > 0 && (len(p.recStart) == 0 || p.recStart[0] != 0) {
		return fmt.Errorf("packed table: record column does not start at ordinal 0")
	}
	root, docEnd, roots := int32(-1), int32(0), 0
	for k, start := range p.recStart {
		next := n
		if k+1 < len(p.recStart) {
			next = p.recStart[k+1]
		}
		if start < 0 || next <= start || next > n {
			return fmt.Errorf("packed table: record %d: bounds [%d,%d) out of order or out of range", k, start, next)
		}
		switch par := p.parentOf(start); {
		case par < 0:
			if start != docEnd || roots >= len(p.docStart) || p.docStart[roots] != start {
				return fmt.Errorf("packed table: record %d: root %d does not follow the previous document", k, start)
			}
			if next != start+1 {
				return fmt.Errorf("packed table: record %d: root record [%d,%d) is not the root alone", k, start, next)
			}
			root, docEnd = start, start+p.subtreeOf(start)
			roots++
		case par != root || start+p.subtreeOf(start) != next:
			return fmt.Errorf("packed table: record %d: [%d,%d) is not a depth-1 subtree of root %d", k, start, next, root)
		}
	}
	if n > 0 && (roots != len(p.docStart) || docEnd != n) {
		return fmt.Errorf("packed table: record column covers %d of %d documents", roots, len(p.docStart))
	}
	return nil
}
