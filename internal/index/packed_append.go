package index

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Delta-maintaining pack: appending a document to a packed index without
// flattening it, the only way AppendAs adds a document. It packs only
// the new document's subtree against the *existing* shape table, where a
// full pack would materialize every node as a flat NodeInfo record and
// re-pack from scratch, O(index): shape interning stays exact (keyed on the
// same canonical byte encoding packNodes uses), the table is append-only
// between full repacks, and new spine rows, instances, ordInst entries and
// arena values are appended in place. Cost is O(document + touched posting lists), not O(index).
//
// Concurrency. Packed indexes are immutable serving state, but the delta
// path extends the predecessor's backing arrays in place (beyond their
// published lengths, which no reader's slice header can reach). That is
// safe for exactly one appender per array generation, so each packed
// lineage carries an appendState whose mutex-guarded owner pointer names
// the one generation whose tails may still grow. The first append wins
// ownership and moves it to the successor; a second append branching from
// the same generation loses the claim, and AppendAs packs that
// generation's live rows afresh before appending.
//
// Amortization. Delta appends leave debt behind: shapes that would have
// deduplicated against the new subtrees stay spine, and tombstoned
// ordinals keep their physical rows. PackDebt reports the ratio,
// Repacked() pays it with a full deterministic repack, and the server's
// checkpointer triggers that under the reload-mutex discipline once the
// ratio crosses its threshold.

// appendState is the per-lineage delta-append claim and lookup sidecar.
// It is shared by pointer along a chain of delta-appended generations;
// owner names the single generation whose array tails are extendable.
type appendState struct {
	mu    sync.Mutex
	owner *packedNodes
	look  *packLookups
}

// packLookups is the append-side reconstruction of packNodes' interning
// state: value → arena id, canonical shape key → shape id, per-shape
// occurrence counts, and shape id → emitted shape-table index. It is
// built once per lineage (O(N)) on the first delta append and maintained
// incrementally afterwards; ownership moves with the appendState claim.
type packLookups struct {
	valIDs   map[string]int32
	shapeIDs map[string]int32
	shapeCnt []int32
	canon    map[int32]int32
}

// packCount counts full packNodes runs process-wide; regression tests use
// deltas of it to pin that WAL replay and delta appends do not repack.
var packCount atomic.Uint64

// PackCount returns the number of full node-table packs performed by this
// process since start. Delta appends do not increment it; every build,
// flat import, compaction, repack and re-categorization does, and so does
// an append whose delta path declined.
func PackCount() uint64 { return packCount.Load() }

// appendShapeKey appends ord's canonical shape key — the exact encoding
// packNodes interns on — resolving child shape ids through sidOf.
func (p *packedNodes) appendShapeKey(key []byte, ord int32, sidOf []int32) []byte {
	key = binary.AppendUvarint(key, uint64(p.labelOf(ord)))
	key = append(key, byte(p.catOf(ord)))
	key = binary.AppendUvarint(key, uint64(p.childCountOf(ord)))
	key = binary.AppendUvarint(key, uint64(p.valIDOf(ord)+1))
	for c, end := ord+1, ord+p.subtreeOf(ord); c < end; c += p.subtreeOf(c) {
		key = binary.AppendUvarint(key, uint64(sidOf[c]))
		key = binary.AppendUvarint(key, uint64(uint32(p.lastOf(c))))
	}
	return key
}

// buildLookups reconstructs the interning maps for the whole packed table.
// The bottom-up sweep mirrors packNodes: children carry higher ordinals,
// so a reverse scan sees every child's shape id before its parent's key
// needs it. Shape keys are only ever compared against other keys built
// from the same table (plus delta documents), so the reconstructed id
// space does not need to match the original pack's transient one — it
// only needs to group identical subtrees identically, which the exact
// canonical encoding guarantees.
func (p *packedNodes) buildLookups() *packLookups {
	n := int32(len(p.ordInst))
	lk := &packLookups{
		valIDs:   make(map[string]int32, len(p.valOff)-1),
		shapeIDs: make(map[string]int32, n/2+1),
		canon:    make(map[int32]int32, len(p.shOff)),
	}
	for v := int32(0); v+1 < int32(len(p.valOff)); v++ {
		lk.valIDs[p.value(v)] = v
	}
	sidOf := make([]int32, n)
	var key []byte
	for ord := n - 1; ord >= 0; ord-- {
		key = p.appendShapeKey(key[:0], ord, sidOf)
		sid, ok := lk.shapeIDs[string(key)]
		if !ok {
			sid = int32(len(lk.shapeCnt))
			lk.shapeIDs[string(key)] = sid
			lk.shapeCnt = append(lk.shapeCnt, 0)
		}
		sidOf[ord] = sid
		lk.shapeCnt[sid]++
	}
	for i := range p.inStart {
		lk.canon[sidOf[p.inStart[i]]] = p.inShape[i]
	}
	return lk
}

// deltaAppend packs nodes (a flat pre-order table of whole documents, all
// numbered past the base's last document) against the existing shape
// table and returns the extended generation. remap translates the
// partial's label ids to the base's; lk must be current for p. The caller
// holds the appendState mutex and owns p's array tails.
func (p *packedNodes) deltaAppend(nodes []NodeInfo, remap []int32, lk *packLookups) *packedNodes {
	baseN := int32(len(p.ordInst))
	m := int32(len(nodes))
	q := *p // shallow copy; every extended array is reassigned below

	// Value interning against the shared arena. A new value's id is the
	// current offset count minus the sentinel; the old sentinel becomes its
	// start offset and a fresh sentinel is appended.
	valOf := make([]int32, m)
	for k := int32(0); k < m; k++ {
		nd := &nodes[k]
		if !nd.HasValue {
			valOf[k] = -1
			continue
		}
		id, ok := lk.valIDs[nd.Value]
		if !ok {
			id = int32(len(q.valOff)) - 1
			lk.valIDs[nd.Value] = id
			q.valArena = append(q.valArena, nd.Value...)
			q.valOff = append(q.valOff, int32(len(q.valArena)))
		}
		valOf[k] = id
	}

	// Bottom-up shape interning over the new nodes, against the global
	// shape-id space (base table + prior deltas).
	sidOf := make([]int32, m)
	var key []byte
	for k := m - 1; k >= 0; k-- {
		nd := &nodes[k]
		key = binary.AppendUvarint(key[:0], uint64(remap[nd.Label]))
		key = append(key, byte(nd.Cat))
		key = binary.AppendUvarint(key, uint64(nd.ChildCount))
		key = binary.AppendUvarint(key, uint64(valOf[k]+1))
		for c := k + 1; c < k+nd.Subtree; c += nodes[c].Subtree {
			key = binary.AppendUvarint(key, uint64(sidOf[c]))
			key = binary.AppendUvarint(key, uint64(uint32(lastComp(&nodes[c]))))
		}
		sid, ok := lk.shapeIDs[string(key)]
		if !ok {
			sid = int32(len(lk.shapeCnt))
			lk.shapeIDs[string(key)] = sid
			lk.shapeCnt = append(lk.shapeCnt, 0)
		}
		sidOf[k] = sid
		lk.shapeCnt[sid]++
	}

	// Top-down emission, mirroring packNodes' instance selection: a node
	// whose shape now occurs at least twice across the whole table becomes
	// an instance (emitting the shape's records on first use) and its
	// subtree is skipped; everything else is spine and the scan descends.
	// A shape whose earlier occurrences stayed spine in the base keeps
	// them there — that residue is the delta debt a full repack clears.
	for k := int32(0); k < m; {
		nd := &nodes[k]
		sid := sidOf[k]
		if lk.shapeCnt[sid] < 2 {
			slot := int32(len(q.spLabel))
			q.ordInst = append(q.ordInst, ^slot)
			q.spLabel = append(q.spLabel, remap[nd.Label])
			q.spCat = append(q.spCat, uint8(nd.Cat))
			q.spChild = append(q.spChild, nd.ChildCount)
			q.spSubtree = append(q.spSubtree, nd.Subtree)
			par := nd.Parent
			if par >= 0 {
				par += baseN
			}
			q.spParent = append(q.spParent, par)
			q.spLast = append(q.spLast, lastComp(nd))
			q.spDepth = append(q.spDepth, int32(nd.ID.Depth()))
			q.spVal = append(q.spVal, valOf[k])
			k++
			continue
		}
		cs, ok := lk.canon[sid]
		if !ok {
			cs = int32(len(q.shOff)) - 1
			lk.canon[sid] = cs
			for j := int32(0); j < nd.Subtree; j++ {
				md := &nodes[k+j]
				q.shLabel = append(q.shLabel, remap[md.Label])
				q.shCat = append(q.shCat, uint8(md.Cat))
				q.shChild = append(q.shChild, md.ChildCount)
				q.shSubtree = append(q.shSubtree, md.Subtree)
				rel := int32(-1)
				if j > 0 {
					rel = md.Parent - k
				}
				q.shParent = append(q.shParent, rel)
				q.shLast = append(q.shLast, lastComp(md))
				q.shDepth = append(q.shDepth, int32(md.ID.Depth()-nd.ID.Depth()))
				q.shVal = append(q.shVal, valOf[k+j])
			}
			q.shOff = append(q.shOff, int32(len(q.shLabel)))
		}
		inst := int32(len(q.inStart))
		q.inStart = append(q.inStart, baseN+k)
		q.inShape = append(q.inShape, cs)
		par := nd.Parent
		if par >= 0 {
			par += baseN
		}
		q.inParent = append(q.inParent, par)
		q.inLast = append(q.inLast, lastComp(nd))
		q.inDepth = append(q.inDepth, int32(nd.ID.Depth()))
		for j := int32(0); j < nd.Subtree; j++ {
			q.ordInst = append(q.ordInst, inst)
		}
		k += nd.Subtree
	}

	docs := 0
	for k := int32(0); k < m; k += nodes[k].Subtree {
		q.docStart = append(q.docStart, baseN+k)
		q.docNum = append(q.docNum, nodes[k].ID.Doc)
		docs++
	}
	q.recStart = q.appendRecords(q.recStart, len(p.docStart))
	q.deltaNodes = p.deltaNodes + int(m)
	q.deltaDocs = p.deltaDocs + docs
	return &q
}

// appendPacked attempts the delta append of a one-or-more-document flat
// partial index onto the eager base and reports whether it applied. It
// declines — and AppendAs packs the live rows afresh and retries — when
// the base is not the extendable tip of its lineage, or when the
// partial's document numbers do not sort strictly after every
// physical (live or tombstoned) document of the base, which would break
// the Dewey order the packed root table and OrdinalOf rely on.
func (ix *Index) appendPacked(partial *Index) (*Index, bool) {
	p := ix.packed
	if n := len(p.docNum); n > 0 && partial.nodes[0].ID.Doc <= p.docNum[n-1] {
		return nil, false
	}

	a := p.app
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.owner != p {
		return nil, false
	}
	if a.look == nil {
		a.look = p.buildLookups()
	}

	// Label remap; the tables are shared untouched unless the document
	// introduces labels the base has never seen.
	labels, labelIDs := ix.Labels, ix.labelIDs
	remap := make([]int32, len(partial.Labels))
	copied := false
	for i, l := range partial.Labels {
		id, ok := labelIDs[l]
		if !ok {
			if !copied {
				labels = append([]string(nil), ix.Labels...)
				ids := make(map[string]int32, len(ix.labelIDs)+4)
				for k, v := range ix.labelIDs {
					ids[k] = v
				}
				labelIDs = ids
				copied = true
			}
			id = int32(len(labels))
			labels = append(labels, l)
			labelIDs[l] = id
		}
		remap[i] = id
	}

	baseN := int32(len(p.ordInst))
	q := p.deltaAppend(partial.nodes, remap, a.look)
	q.app = a
	a.owner = q

	// Postings: fresh map (concurrent readers hold the old one), untouched
	// lists shared, the document's terms extended with rebased ordinals.
	post := make(map[string][]int32, len(ix.Postings)+len(partial.Postings))
	for kw, list := range ix.Postings {
		post[kw] = list
	}
	for kw, plist := range partial.Postings {
		base := post[kw]
		dst := make([]int32, len(base), len(base)+len(plist))
		copy(dst, base)
		for _, ord := range plist {
			dst = append(dst, ord+baseN)
		}
		post[kw] = dst
	}

	names := make([]string, 0, len(ix.DocNames)+len(partial.DocNames))
	names = append(append(names, ix.DocNames...), partial.DocNames...)

	// Tombstones survive the append (unlike a full pack, which compacts):
	// the new ordinals extend the final live span. The dead ranges and
	// per-keyword dead counts are immutable after DeleteDoc, so they are
	// shared.
	var tomb *tombstones
	if t := ix.tomb; t != nil {
		live := make([][2]int32, len(t.live), len(t.live)+1)
		copy(live, t.live)
		m := int32(len(partial.nodes))
		if n := len(live); n > 0 && live[n-1][1] == baseN {
			live[n-1][1] = baseN + m
		} else {
			live = append(live, [2]int32{baseN, baseN + m})
		}
		tomb = &tombstones{dead: t.dead, live: live, deadPosts: t.deadPosts, deadDocs: t.deadDocs}
	}

	// Incremental live statistics: the base's stats are already live-only
	// (kept so by DeleteDoc), the partial's are self-contained, and
	// the only cross term is vocabulary overlap.
	st := ix.Stats
	pst := partial.Stats
	st.addNodes(pst, 1)
	st.PostingEntries += pst.PostingEntries
	if pst.MaxDepth > st.MaxDepth {
		st.MaxDepth = pst.MaxDepth
	}
	for kw := range partial.Postings {
		base, ok := ix.Postings[kw]
		if !ok || (ix.tomb != nil && int(ix.tomb.deadPosts[kw]) >= len(base)) {
			st.DistinctKeywords++
		}
	}

	return &Index{
		Labels:   labels,
		Postings: post,
		DocNames: names,
		Stats:    st,
		labelIDs: labelIDs,
		tomb:     tomb,
		packed:   q,
	}, true
}

// PackDebt reports the fraction of the physical node table a full repack
// would reclaim or re-deduplicate: ordinals appended by delta packs since
// the last full pack plus tombstoned ordinals, over the total. It is the
// signal the checkpointer's amortization policy thresholds on; a freshly
// packed, untombstoned index reports 0.
func (ix *Index) PackDebt() float64 {
	n := ix.NodeCount()
	if n == 0 {
		return 0
	}
	debt := ix.packed.deltaNodes
	if ix.tomb != nil {
		for _, r := range ix.tomb.dead {
			debt += int(r[1] - r[0])
		}
	}
	if debt >= n {
		return 1
	}
	return float64(debt) / float64(n)
}

// Repacked pays the index's pack debt: tombstones are compacted away and
// the node table is rebuilt from scratch by the deterministic full pack,
// so the result is exactly what a cold rebuild of the surviving documents
// produces. An index with no debt is returned as-is.
func (ix *Index) Repacked() *Index {
	if ix.tomb == nil && ix.packed.deltaNodes == 0 {
		return ix
	}
	return ix.flat().pack()
}
