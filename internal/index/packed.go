package index

import (
	"fmt"

	"repro/internal/dewey"
)

// Resident node table: one row per ordinal, held in structure-of-arrays
// columns. Row ord answers the questions the GKS pipeline asks of a node
// at every S_L entry and window block — its label, category, child count,
// subtree size, parent, trailing Dewey component, depth and value — each
// with one load from one column. Full Dewey paths are not stored: the
// parent-chain walk rebuilds them at result-lift and snippet time. Every
// Value string lives once in a shared arena of interned values.
//
// It is the only node table an index serves from. Builders fill a flat
// []NodeInfo and seal it into columns (seal, sealing); deletes tombstone
// against the columns, appends extend them in place under a single-owner
// claim (packed_append.go), compaction copies the live rows, and schema
// re-categorization replaces the category column. The DAG-compressed
// layout after Böttcher et al. (dag.go) is only the on-disk encoding of
// these columns in GKS3 and GKS4 files: packNodes encodes, and the loader
// expands a decoded image back into columns.
type nodeColumns struct {
	label   []int32
	cat     []uint8
	child   []int32 // direct children, elements and text nodes
	subtree []int32 // element nodes in the subtree, the node included
	parent  []int32 // parent ordinal, -1 at a document root
	last    []int32 // trailing Dewey path component
	depth   []int32 // Dewey depth, 0 at a document root
	val     []int32 // value id, -1 when the node has no direct text

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

	// app is the append claim of the lineage this table belongs to (see
	// packed_append.go). It travels by pointer across appended
	// generations and is never serialized.
	app *appendState
}

// NodeCount returns the number of element nodes (rows) in the table,
// tombstoned rows included.
func (ix *Index) NodeCount() int { return len(ix.cols.label) }

func (c *nodeColumns) value(id int32) string {
	return string(c.valArena[c.valOff[id]:c.valOff[id+1]])
}

// docSlot returns the position in the root table of the document
// containing ord, by binary search.
func (c *nodeColumns) docSlot(ord int32) int {
	lo, hi := 0, len(c.docStart)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.docStart[mid] <= ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// docOf returns the Dewey document number of the document containing ord.
func (c *nodeColumns) docOf(ord int32) int32 { return c.docNum[c.docSlot(ord)] }

// appendPath appends ord's full Dewey path to buf by walking the parent
// chain; depths are stored, so the slice is sized once.
func (c *nodeColumns) appendPath(ord int32, buf []int32) []int32 {
	d := int(c.depth[ord]) + 1
	n := len(buf)
	for i := 0; i < d; i++ {
		buf = append(buf, 0)
	}
	for cur := ord; d > 0; d-- {
		buf[n+d-1] = c.last[cur]
		cur = c.parent[cur]
	}
	return buf
}

func (c *nodeColumns) idOf(ord int32) dewey.ID {
	return dewey.ID{Doc: c.docOf(ord), Path: c.appendPath(ord, nil)}
}

// compareID orders ord's Dewey ID against id without materializing a path
// allocation (OrdinalOf probes this O(log n) times per lookup).
func (c *nodeColumns) compareID(ord int32, id dewey.ID) int {
	if doc := c.docOf(ord); doc != id.Doc {
		if doc < id.Doc {
			return -1
		}
		return 1
	}
	var scratch [64]int32
	path := c.appendPath(ord, scratch[:0])
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

// --- building -----------------------------------------------------------

// seal replaces the builders' flat table with the resident columns, in
// place, and returns ix. Equal flat tables seal to equal columns.
func (ix *Index) seal() *Index {
	ix.cols = columnsOf(ix.nodes)
	ix.nodes = nil
	return ix
}

// sealing seals a builder's result, passing its error through.
func sealing(ix *Index, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	return ix.seal(), nil
}

// columnsOf builds a fresh table, the tip of a new append lineage, from a
// flat pre-order table of whole documents. Values are interned across the
// whole table in first-encounter order.
func columnsOf(nodes []NodeInfo) *nodeColumns {
	n := len(nodes)
	c := &nodeColumns{
		label:   make([]int32, 0, n),
		cat:     make([]uint8, 0, n),
		child:   make([]int32, 0, n),
		subtree: make([]int32, 0, n),
		parent:  make([]int32, 0, n),
		last:    make([]int32, 0, n),
		depth:   make([]int32, 0, n),
		val:     make([]int32, 0, n),
		valOff:  []int32{0},
	}
	c.app = &appendState{owner: c}
	c.appendRows(nodes, nil)
	return c
}

// appendRows appends the flat rows of whole documents after the table's
// last row, in place: parents are rebased by the current row count, label
// ids go through remap (nil keeps them), and values are interned among
// the appended rows. The root table and the record column grow with them.
func (c *nodeColumns) appendRows(nodes []NodeInfo, remap []int32) {
	base := int32(len(c.label))
	ids := make(map[string]int32)
	for i := range nodes {
		nd := &nodes[i]
		label, par := nd.Label, nd.Parent
		if remap != nil {
			label = remap[label]
		}
		if par >= 0 {
			par += base
		}
		v := int32(-1)
		if nd.HasValue {
			var ok bool
			if v, ok = ids[nd.Value]; !ok {
				v = int32(len(c.valOff)) - 1
				ids[nd.Value] = v
				c.valArena = append(c.valArena, nd.Value...)
				c.valOff = append(c.valOff, int32(len(c.valArena)))
			}
		}
		c.label = append(c.label, label)
		c.cat = append(c.cat, uint8(nd.Cat))
		c.child = append(c.child, nd.ChildCount)
		c.subtree = append(c.subtree, nd.Subtree)
		c.parent = append(c.parent, par)
		c.last = append(c.last, lastComp(nd))
		c.depth = append(c.depth, int32(nd.ID.Depth()))
		c.val = append(c.val, v)
	}
	from := len(c.docStart)
	for k := int32(0); k < int32(len(nodes)); k += nodes[k].Subtree {
		c.docStart = append(c.docStart, base+k)
		c.docNum = append(c.docNum, nodes[k].ID.Doc)
	}
	c.recStart = c.appendRecords(c.recStart, from)
}

// compact copies the rows of the live spans into a fresh table, the tip
// of a new lineage: ordinals shift down over the dead rows, and the values
// the live rows use are re-interned by content in first-encounter order,
// so dead values leave the arena and the result equals the columns a cold
// build of the live documents holds.
func (c *nodeColumns) compact(spans [][2]int32) *nodeColumns {
	live := 0
	for _, sp := range spans {
		live += int(sp[1] - sp[0])
	}
	d := &nodeColumns{
		label:   make([]int32, 0, live),
		cat:     make([]uint8, 0, live),
		child:   make([]int32, 0, live),
		subtree: make([]int32, 0, live),
		parent:  make([]int32, 0, live),
		last:    make([]int32, 0, live),
		depth:   make([]int32, 0, live),
		val:     make([]int32, 0, live),
		valOff:  []int32{0},
	}
	d.app = &appendState{owner: d}
	renum := make([]int32, len(c.valOff)-1)
	for i := range renum {
		renum[i] = -1
	}
	ids := make(map[string]int32)
	for _, sp := range spans {
		// Rows in this span shift down by the dead mass before it; a
		// non-root's parent is in the same document, hence the same span.
		shift := sp[0] - int32(len(d.label))
		d.label = append(d.label, c.label[sp[0]:sp[1]]...)
		d.cat = append(d.cat, c.cat[sp[0]:sp[1]]...)
		d.child = append(d.child, c.child[sp[0]:sp[1]]...)
		d.subtree = append(d.subtree, c.subtree[sp[0]:sp[1]]...)
		d.last = append(d.last, c.last[sp[0]:sp[1]]...)
		d.depth = append(d.depth, c.depth[sp[0]:sp[1]]...)
		for ord := sp[0]; ord < sp[1]; ord++ {
			par := c.parent[ord]
			if par >= 0 {
				par -= shift
			}
			d.parent = append(d.parent, par)
			v := c.val[ord]
			if v >= 0 {
				if renum[v] < 0 {
					s := c.valArena[c.valOff[v]:c.valOff[v+1]]
					id, ok := ids[string(s)]
					if !ok {
						id = int32(len(d.valOff)) - 1
						ids[string(s)] = id
						d.valArena = append(d.valArena, s...)
						d.valOff = append(d.valOff, int32(len(d.valArena)))
					}
					renum[v] = id
				}
				v = renum[v]
			}
			d.val = append(d.val, v)
		}
		k := c.docSlot(sp[0])
		for ord := sp[0]; ord < sp[1]; ord += c.subtree[ord] {
			d.docStart = append(d.docStart, ord-shift)
			d.docNum = append(d.docNum, c.docNum[k])
			k++
		}
	}
	d.recStart = d.appendRecords(nil, 0)
	return d
}

// SetCategories installs cats — one category per ordinal, as
// schema.Summary.Categorize computes them — on the live nodes and returns
// how many of them changed. Only the category column is replaced:
// ordinals, the tombstone mask and the postings stay as they are, and an
// engine bound to ix sees the new categories at once. Tombstoned rows
// keep theirs. The category statistics are refreshed.
func (ix *Index) SetCategories(cats []Category) int {
	c := ix.cols
	var cat []uint8
	changed := 0
	for _, sp := range ix.LiveSpans() {
		for ord := sp[0]; ord < sp[1]; ord++ {
			if Category(c.cat[ord]) == cats[ord] {
				continue
			}
			if cat == nil {
				cat = append([]uint8(nil), c.cat...)
			}
			cat[ord] = uint8(cats[ord])
			changed++
		}
	}
	if cat != nil {
		q := c.fork()
		q.cat = cat
		ix.cols = q
	}
	ix.refreshCategoryStats()
	return changed
}

// fork returns a shallow copy of the table for a caller that replaces one
// of its columns. The copy takes over the append claim if c holds it: the
// arrays it shares with c keep their unpublished tails, which c can then
// no longer extend.
func (c *nodeColumns) fork() *nodeColumns {
	q := *c
	a := c.app
	a.mu.Lock()
	if a.owner == c {
		a.owner = &q
	}
	a.mu.Unlock()
	return &q
}

// appendRecords appends to dst the record bounds of the documents whose
// roots are docStart[from:]: each root, then the start of each of its
// children. A root's walk stops at the next root, so a subtree size that
// overruns its document cannot make the walk quadratic; validateRecords
// rejects such a table.
func (c *nodeColumns) appendRecords(dst []int32, from int) []int32 {
	n := int32(len(c.label))
	for k := from; k < len(c.docStart); k++ {
		root := c.docStart[k]
		end := min(root+c.subtree[root], n)
		if k+1 < len(c.docStart) {
			end = min(end, c.docStart[k+1])
		}
		dst = append(dst, root)
		for ord := root + 1; ord < end; ord += c.subtree[ord] {
			dst = append(dst, ord)
		}
	}
	return dst
}

// Records returns the record bounds of the node table: the sorted
// ordinals of every document root and every depth-1 node. Record k spans
// [Records()[k], Records()[k+1]), the last one ends at NodeCount. The
// slice is shared; callers must not modify it.
func (ix *Index) Records() []int32 { return ix.cols.recStart }

func lastComp(n *NodeInfo) int32 { return n.ID.Path[len(n.ID.Path)-1] }

// --- accounting ---------------------------------------------------------

// NodeTableBytes returns the exact heap footprint of the node table's
// columns: 29 bytes per row, the value arena and its offsets, the root
// table and the record column. This is the benchmark's
// index.node_table_mib — computed, not sampled, so it is stable across GC
// timing.
func (ix *Index) NodeTableBytes() int64 {
	c := ix.cols
	b := int64(len(c.label))*4 + int64(len(c.cat)) + int64(len(c.child))*4 +
		int64(len(c.subtree))*4 + int64(len(c.parent))*4 + int64(len(c.last))*4 +
		int64(len(c.depth))*4 + int64(len(c.val))*4
	b += int64(len(c.valOff))*4 + int64(len(c.valArena))
	b += int64(len(c.docStart))*4 + int64(len(c.docNum))*4 + int64(len(c.recStart))*4
	return b
}

// --- validation ---------------------------------------------------------

// validateNodes checks the node table's column invariants and its record
// column. Every accessor indexes blindly for speed, so a decoded image
// must pass here before it serves.
func (ix *Index) validateNodes() error {
	if err := ix.cols.validateLayout(len(ix.Labels)); err != nil {
		return err
	}
	return ix.cols.validateRecords()
}

// validateLayout checks every column invariant but the record column,
// which is derived from what it checks: the columns are as long as the
// table, every label and value id is in range, a parent comes before its
// child and is the innermost subtree range that holds it, subtree ranges
// nest inside their parent's and the table, a depth is its parent's + 1
// (0 at a root), and the root table lists exactly the roots, in order,
// with increasing document numbers.
func (c *nodeColumns) validateLayout(nLabels int) error {
	n := int32(len(c.label))
	for _, l := range []int{len(c.cat), len(c.child), len(c.subtree), len(c.parent), len(c.last), len(c.depth), len(c.val)} {
		if l != int(n) {
			return fmt.Errorf("node table: column of %d rows beside %d labels", l, n)
		}
	}
	if len(c.docNum) != len(c.docStart) {
		return fmt.Errorf("node table: %d document numbers for %d roots", len(c.docNum), len(c.docStart))
	}
	if len(c.valOff) == 0 {
		return fmt.Errorf("node table: missing value offset sentinel")
	}
	nVals := int32(len(c.valOff)) - 1
	prev := int32(0)
	for _, off := range c.valOff {
		if off < prev || int(off) > len(c.valArena) {
			return fmt.Errorf("node table: value offset %d out of order", off)
		}
		prev = off
	}
	roots := 0
	for ord := int32(0); ord < n; ord++ {
		if l := c.label[ord]; l < 0 || int(l) >= nLabels {
			return fmt.Errorf("node table: ordinal %d: label %d out of range [0,%d)", ord, l, nLabels)
		}
		if v := c.val[ord]; v < -1 || v >= nVals {
			return fmt.Errorf("node table: ordinal %d: value id %d out of range [-1,%d)", ord, v, nVals)
		}
		sub := c.subtree[ord]
		if sub < 1 || int64(ord)+int64(sub) > int64(n) {
			return fmt.Errorf("node table: ordinal %d: subtree %d overruns %d nodes", ord, sub, n)
		}
		if c.child[ord] < 0 {
			return fmt.Errorf("node table: ordinal %d: negative child count", ord)
		}
		// The innermost open subtree range before ord: climbing from the
		// previous row past every range that ends at ord visits each row
		// once over the whole scan.
		open := ord - 1
		for open >= 0 && open+c.subtree[open] <= ord {
			open = c.parent[open]
		}
		par := c.parent[ord]
		if par != open {
			return fmt.Errorf("node table: ordinal %d: parent %d, but the enclosing subtree is %d", ord, par, open)
		}
		if par < 0 {
			if c.depth[ord] != 0 {
				return fmt.Errorf("node table: root %d: depth %d != 0", ord, c.depth[ord])
			}
			if roots >= len(c.docStart) || c.docStart[roots] != ord {
				return fmt.Errorf("node table: root %d missing from the root table", ord)
			}
			if roots > 0 && c.docNum[roots] <= c.docNum[roots-1] {
				return fmt.Errorf("node table: document numbers out of order at root %d", ord)
			}
			roots++
			continue
		}
		if c.depth[ord] != c.depth[par]+1 {
			return fmt.Errorf("node table: ordinal %d: depth %d under a parent at depth %d", ord, c.depth[ord], c.depth[par])
		}
		if int64(ord)+int64(sub) > int64(par)+int64(c.subtree[par]) {
			return fmt.Errorf("node table: ordinal %d: subtree overruns parent %d's", ord, par)
		}
	}
	if roots != len(c.docStart) {
		return fmt.Errorf("node table: %d roots, root table holds %d", roots, len(c.docStart))
	}
	return nil
}

// validateRecords checks the record column against the layout: the
// bounds tile [0, n) in order, a root's record is the root alone and
// ends where its first child or the next document begins, a depth-1
// record is exactly its node's subtree, and each document ends where the
// next root's record begins. The window stage's climb stops at a record
// root on the strength of these.
func (c *nodeColumns) validateRecords() error {
	n := int32(len(c.label))
	if n > 0 && (len(c.recStart) == 0 || c.recStart[0] != 0) {
		return fmt.Errorf("node table: record column does not start at ordinal 0")
	}
	root, docEnd, roots := int32(-1), int32(0), 0
	for k, start := range c.recStart {
		next := n
		if k+1 < len(c.recStart) {
			next = c.recStart[k+1]
		}
		if start < 0 || next <= start || next > n {
			return fmt.Errorf("node table: record %d: bounds [%d,%d) out of order or out of range", k, start, next)
		}
		switch par := c.parent[start]; {
		case par < 0:
			if start != docEnd || roots >= len(c.docStart) || c.docStart[roots] != start {
				return fmt.Errorf("node table: record %d: root %d does not follow the previous document", k, start)
			}
			if next != start+1 {
				return fmt.Errorf("node table: record %d: root record [%d,%d) is not the root alone", k, start, next)
			}
			root, docEnd = start, start+c.subtree[start]
			roots++
		case par != root || start+c.subtree[start] != next:
			return fmt.Errorf("node table: record %d: [%d,%d) is not a depth-1 subtree of root %d", k, start, next, root)
		}
	}
	if n > 0 && (roots != len(c.docStart) || docEnd != n) {
		return fmt.Errorf("node table: record column covers %d of %d documents", roots, len(c.docStart))
	}
	return nil
}
