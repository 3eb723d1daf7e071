package index

import "sync"

// Column append: adding whole documents to a served table, the only way
// AppendAs adds a document. The document is built into a table of its own,
// whose rows are then appended after the table's last row
// (nodeColumns.appendTable): parents rebased, label ids remapped, value
// ids moved past the base's values. No existing row is read or rewritten,
// so the cost is O(document + touched posting lists), not O(index).
//
// Concurrency. A table is immutable serving state, but the append extends
// the predecessor's column arrays in place, beyond their published
// lengths, which no reader's slice header can reach. That is safe for
// exactly one appender per generation, so each lineage of tables carries
// an appendState whose mutex-guarded owner names the one generation whose
// tails may still grow. The first append wins the claim and moves it to
// its successor; a second append branching from the same generation loses
// it, and AppendAs copies that generation's live rows into a fresh lineage
// before appending — as it compacts when the new document's number does
// not sort after a tombstoned document's.
//
// Debt. Tombstoned rows keep their place in the table until a compaction.
// PackDebt reports their share, Compacted pays it, and the server's
// checkpointer triggers that once the share crosses its threshold.

// appendState is the per-lineage append claim. It is shared by pointer
// along a chain of appended generations; owner names the single
// generation whose array tails are extendable.
type appendState struct {
	mu    sync.Mutex
	owner *nodeColumns
}

// appendColumns attempts the column append of a one-or-more-document
// partial index onto the eager base and reports whether it applied. It
// declines — and AppendAs copies or compacts the live rows and retries —
// when the base is not the extendable tip of its lineage, or when the
// partial's document numbers do not sort strictly after every physical
// (live or tombstoned) document of the base, which would break the Dewey
// order the root table and OrdinalOf rely on.
func (ix *Index) appendColumns(partial *Index) (*Index, bool) {
	c, p := ix.cols, partial.cols
	if n := len(c.docNum); n > 0 && p.docNum[0] <= c.docNum[n-1] {
		return nil, false
	}

	a := c.app
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.owner != c {
		return nil, false
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

	baseN := int32(len(c.label))
	q := *c
	q.appendTable(p, remap)
	a.owner = &q

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

	// Tombstones survive the append: the new ordinals extend the final
	// live span. The dead ranges and per-keyword dead counts are immutable
	// after DeleteDoc, so they are shared.
	var tomb *tombstones
	if t := ix.tomb; t != nil {
		live := make([][2]int32, len(t.live), len(t.live)+1)
		copy(live, t.live)
		m := int32(len(p.label))
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
		cols:     &q,
	}, true
}

// PackDebt reports the fraction of the node table's rows that are
// tombstoned: the rows a compaction would reclaim, over all rows. It is
// the signal the checkpointer's amortization policy thresholds on; an
// untombstoned index reports 0.
func (ix *Index) PackDebt() float64 {
	n := ix.NodeCount()
	if n == 0 || ix.tomb == nil {
		return 0
	}
	dead := 0
	for _, r := range ix.tomb.dead {
		dead += int(r[1] - r[0])
	}
	return float64(dead) / float64(n)
}
