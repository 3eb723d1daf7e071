package index

import (
	"encoding/binary"
	"sync/atomic"
)

// DAG-compressed encoding of the node table, after "Efficient XML Keyword
// Search based on DAG-Compression" (Böttcher et al.): the node section of
// GKS3 snapshots and of GKS4 segment meta sections. It is an encoding
// only — packNodes turns the resident columns into an image at save time,
// and the loader expands a decoded image back into columns — so nothing
// serves from it.
//
// The image (1) stores the trailing Dewey component per node and every
// Value string once in an interned arena, as the columns do, and (2)
// deduplicates identical element subtrees: each repeated subtree's
// *shape* (labels, categories, child structure, values and the sibling
// Dewey offsets of its element children) is stored once in a shape table,
// and an instance table maps pre-order ordinal ranges onto shapes.
//
// Every ordinal is either a *spine* node (stored individually) or part of
// an *instance* (a subtree that shares a shape with at least one other
// subtree). An instance covers the contiguous ordinal range
// [inStart[i], inStart[i]+shape size); the k-th node of the range is the
// k-th pre-order node of the shape. Instances are emitted in ordinal
// order and spine slots in ascending ordinal order, so the two tile the
// table without a per-ordinal dispatch array. Because the packing scan
// only descends into spine nodes and skips whole instance subtrees, an
// instance root's parent is always a spine node — per-instance data is
// therefore just (start, shape, parent ordinal, trailing Dewey component,
// depth).
type dagImage struct {
	n int32 // nodes in the table

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

	// Interned value arena and root table, as in nodeColumns.
	valOff   []int32
	valArena []byte
	docStart []int32
	docNum   []int32
}

// packCount counts packNodes runs process-wide; regression tests use
// deltas of it to pin which paths encode.
var packCount atomic.Uint64

// PackCount returns the number of DAG encodings (packNodes runs) this
// process has performed since start: one per GKS3 or GKS4 image written.
// Builds, loads, appends, compactions and re-categorizations do not
// encode.
func PackCount() uint64 { return packCount.Load() }

// packNodes encodes a table of whole, live documents. Equal tables encode
// to equal images, however their columns were reached: values are
// re-interned by content in first-encounter order, which is what a cold
// build's columns hold.
//
// Pass 1 interns values and computes a structural shape id per node
// bottom-up: the shape key covers the node's label, category, child count,
// value id and, for each element child, the child's shape id *and* its
// trailing Dewey component — text-node interleaving shifts sibling
// components, so two subtrees are shape-equal only when their element
// layout relative to text children matches too. Interning is exact (keyed
// on the canonical encoding, not a hash), so distinct subtrees can never
// be merged.
//
// Pass 2 scans top-down: a node whose shape occurs at least twice becomes
// an instance and its whole subtree is skipped (so nested repeats dedup at
// the outermost level); everything else is spine and the scan descends.
func packNodes(c *nodeColumns) *dagImage {
	packCount.Add(1)
	n := int32(len(c.label))
	img := &dagImage{n: n, valOff: []int32{0}, docStart: c.docStart, docNum: c.docNum}

	// Value interning. renum caches the image id of each column value id,
	// so each distinct column value is hashed once.
	renum := make([]int32, len(c.valOff)-1)
	for i := range renum {
		renum[i] = -1
	}
	valIDs := make(map[string]int32)
	valOf := make([]int32, n)
	for ord := int32(0); ord < n; ord++ {
		v := c.val[ord]
		if v < 0 {
			valOf[ord] = -1
			continue
		}
		if renum[v] < 0 {
			s := c.valArena[c.valOff[v]:c.valOff[v+1]]
			id, ok := valIDs[string(s)]
			if !ok {
				id = int32(len(img.valOff)) - 1
				valIDs[string(s)] = id
				img.valArena = append(img.valArena, s...)
				img.valOff = append(img.valOff, int32(len(img.valArena)))
			}
			renum[v] = id
		}
		valOf[ord] = renum[v]
	}

	// Bottom-up shape interning. Children have higher ordinals than their
	// parents in pre-order, so a reverse sweep sees every child's shape
	// before the parent needs it.
	shapeIDs := make(map[string]int32)
	shapeOf := make([]int32, n)
	shapeCount := make([]int32, 0, 1024)
	var key []byte
	for ord := n - 1; ord >= 0; ord-- {
		key = binary.AppendUvarint(key[:0], uint64(c.label[ord]))
		key = append(key, c.cat[ord])
		key = binary.AppendUvarint(key, uint64(c.child[ord]))
		key = binary.AppendUvarint(key, uint64(valOf[ord]+1))
		for ch, end := ord+1, ord+c.subtree[ord]; ch < end; ch += c.subtree[ch] {
			key = binary.AppendUvarint(key, uint64(shapeOf[ch]))
			key = binary.AppendUvarint(key, uint64(uint32(c.last[ch])))
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
		sid := shapeOf[ord]
		if shapeCount[sid] < 2 {
			img.spLabel = append(img.spLabel, c.label[ord])
			img.spCat = append(img.spCat, c.cat[ord])
			img.spChild = append(img.spChild, c.child[ord])
			img.spSubtree = append(img.spSubtree, c.subtree[ord])
			img.spParent = append(img.spParent, c.parent[ord])
			img.spLast = append(img.spLast, c.last[ord])
			img.spDepth = append(img.spDepth, c.depth[ord])
			img.spVal = append(img.spVal, valOf[ord])
			ord++
			continue
		}
		size := c.subtree[ord]
		cs, ok := canon[sid]
		if !ok {
			// First instance of this shape: emit the shape's node records
			// from this occurrence. Parents and depths become relative to
			// the shape root.
			cs = int32(len(img.shOff))
			canon[sid] = cs
			img.shOff = append(img.shOff, int32(len(img.shLabel)))
			for m := ord; m < ord+size; m++ {
				img.shLabel = append(img.shLabel, c.label[m])
				img.shCat = append(img.shCat, c.cat[m])
				img.shChild = append(img.shChild, c.child[m])
				img.shSubtree = append(img.shSubtree, c.subtree[m])
				rel := int32(-1)
				if m > ord {
					rel = c.parent[m] - ord
				}
				img.shParent = append(img.shParent, rel)
				img.shLast = append(img.shLast, c.last[m])
				img.shDepth = append(img.shDepth, c.depth[m]-c.depth[ord])
				img.shVal = append(img.shVal, valOf[m])
			}
		}
		img.inStart = append(img.inStart, ord)
		img.inShape = append(img.inShape, cs)
		img.inParent = append(img.inParent, c.parent[ord])
		img.inLast = append(img.inLast, c.last[ord])
		img.inDepth = append(img.inDepth, c.depth[ord])
		ord += size
	}
	img.shOff = append(img.shOff, int32(len(img.shLabel)))
	return img
}

// expand turns a decoded image into resident columns. Expansion indexes
// the image's arrays blindly, so it first checks what it relies on: every
// instance names a shape of the table, the instance ranges ascend without
// overlap inside the node count, and the ordinals they leave uncovered
// are exactly the spine slots. What the columns then hold — labels,
// parents, subtree ranges, depths, value ids, the root table — is the
// column validation's to check. The image's value arena and root table
// become the columns' own; nothing else of the image stays reachable.
func (img *dagImage) expand() (*nodeColumns, error) {
	n := img.n
	nShapes := int32(len(img.shOff)) - 1
	covered, end := int64(0), int64(0)
	for i, s := range img.inShape {
		if s < 0 || s >= nShapes {
			return nil, corruptf("binary load: packed instance %d: shape %d past the %d-shape table", i, s, nShapes)
		}
		start := int64(img.inStart[i])
		size := int64(img.shOff[s+1] - img.shOff[s])
		if start < end {
			return nil, corruptf("binary load: packed instance %d at ordinal %d overlaps the range before it", i, start)
		}
		if start+size > int64(n) {
			return nil, corruptf("binary load: packed instance %d: range [%d,%d) past the node count %d", i, start, start+size, n)
		}
		end = start + size
		covered += size
	}
	if spine := int64(n) - covered; spine != int64(len(img.spLabel)) {
		return nil, corruptf("binary load: packed table holds %d spine slots, its instance ranges leave %d", len(img.spLabel), spine)
	}

	c := &nodeColumns{
		label:    make([]int32, n),
		cat:      make([]uint8, n),
		child:    make([]int32, n),
		subtree:  make([]int32, n),
		parent:   make([]int32, n),
		last:     make([]int32, n),
		depth:    make([]int32, n),
		val:      make([]int32, n),
		valOff:   img.valOff,
		valArena: img.valArena,
		docStart: img.docStart,
		docNum:   img.docNum,
	}
	c.app = &appendState{owner: c}
	inst, slot := 0, int32(0)
	for ord := int32(0); ord < n; {
		if inst < len(img.inStart) && img.inStart[inst] == ord {
			s := img.inShape[inst]
			base, size := img.shOff[s], img.shOff[s+1]-img.shOff[s]
			copy(c.label[ord:], img.shLabel[base:base+size])
			copy(c.cat[ord:], img.shCat[base:base+size])
			copy(c.child[ord:], img.shChild[base:base+size])
			copy(c.subtree[ord:], img.shSubtree[base:base+size])
			copy(c.last[ord:], img.shLast[base:base+size])
			copy(c.val[ord:], img.shVal[base:base+size])
			for k := int32(0); k < size; k++ {
				c.parent[ord+k] = ord + img.shParent[base+k]
				c.depth[ord+k] = img.inDepth[inst] + img.shDepth[base+k]
			}
			c.parent[ord] = img.inParent[inst]
			c.last[ord] = img.inLast[inst]
			ord += size
			inst++
			continue
		}
		c.label[ord] = img.spLabel[slot]
		c.cat[ord] = img.spCat[slot]
		c.child[ord] = img.spChild[slot]
		c.subtree[ord] = img.spSubtree[slot]
		c.parent[ord] = img.spParent[slot]
		c.last[ord] = img.spLast[slot]
		c.depth[ord] = img.spDepth[slot]
		c.val[ord] = img.spVal[slot]
		ord++
		slot++
	}
	return c, nil
}
