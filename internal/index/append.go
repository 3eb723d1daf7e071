package index

import (
	"fmt"

	"repro/internal/xmltree"
)

// AppendAs indexes doc as document number docID of the repository behind
// ix and returns a new merged index; ix itself is not modified (indexes are
// immutable once built, which is what makes concurrent searches safe).
// The number must sort at or after every live document of ix, or the
// merged node table would fall out of Dewey order; ix.NextDocID() is the
// next free one.
//
// Because documents are independent subtrees under distinct Dewey document
// numbers, the new document's ordinals all sort after the existing ones,
// so posting lists stay sorted and subtree ranges stay contiguous.
//
// On failure the caller's document is left exactly as it was passed in,
// so it can be retried against another index.
//
// The delta-maintaining pack (packed_append.go) applies whenever it can:
// the new document is packed against the existing shape table at
// O(document) cost, tombstones survive, and the base is never flattened.
// When the delta path declines — the document number collides with a
// tombstoned document's, or a sibling append already extended this
// generation's arrays — the flatten-splice-repack path runs instead, which
// also compacts any tombstones away.
func AppendAs(ix *Index, doc *xmltree.Document, docID int32, opts Options) (*Index, error) {
	if ix == nil {
		return nil, fmt.Errorf("index: append to nil index")
	}
	// The merge (and the delta path) reads Postings maps directly, so a
	// lazily-backed base is materialized up front (before doc is touched,
	// like validation).
	ix, err := ix.Materialized()
	if err != nil {
		return nil, err
	}
	// Validation (and any Build failure) happens before the base is
	// touched and restores doc on error; only a fully built partial index
	// reaches the merge, which cannot fail on well-formed parts.
	partial, err := buildDocumentAs(doc, docID, opts)
	if err != nil {
		return nil, err
	}
	if out, ok := ix.appendPacked(partial); ok {
		return out, nil
	}
	return mergePartials([]*Index{ix.flat(), partial}).pack(), nil
}

// AppendBatch indexes docs — renumbered sequentially from the base's next
// free document id, in slice order — and merges them in a single splice:
// the base is flattened once (compacting its tombstones), every partial
// merges in one mergePartials call, and the result packs exactly once.
// This is the WAL-replay batch path: boot replay packs once however many
// records survived. An empty batch returns the base itself, a lazy one
// still lazy.
func AppendBatch(ix *Index, docs []*xmltree.Document, opts Options) (*Index, error) {
	if ix == nil {
		return nil, fmt.Errorf("index: append to nil index")
	}
	if len(docs) == 0 {
		return ix, nil
	}
	ix, err := ix.Materialized()
	if err != nil {
		return nil, err
	}
	parts := make([]*Index, 0, len(docs)+1)
	parts = append(parts, ix.flat())
	id := ix.NextDocID()
	for _, doc := range docs {
		part, err := buildDocumentAs(doc, id, opts)
		if err != nil {
			return nil, err
		}
		id++
		parts = append(parts, part)
	}
	return mergePartials(parts).pack(), nil
}

// mergePartials concatenates flat per-document indexes in order into one
// flat index; the caller packs it.
func mergePartials(parts []*Index) *Index {
	out := &Index{
		Postings: make(map[string][]int32),
		labelIDs: make(map[string]int32),
	}
	for _, p := range parts {
		base := int32(len(out.nodes))

		// Remap the partial's label table into the global one.
		labelMap := make([]int32, len(p.Labels))
		for i, l := range p.Labels {
			if id, ok := out.labelIDs[l]; ok {
				labelMap[i] = id
				continue
			}
			id := int32(len(out.Labels))
			out.Labels = append(out.Labels, l)
			out.labelIDs[l] = id
			labelMap[i] = id
		}

		for i := range p.nodes {
			n := p.nodes[i] // copy
			n.Label = labelMap[n.Label]
			if n.Parent >= 0 {
				n.Parent += base
			}
			out.nodes = append(out.nodes, n)
		}
		for key, list := range p.Postings {
			dst := out.Postings[key]
			for _, ord := range list {
				dst = append(dst, ord+base)
			}
			out.Postings[key] = dst
		}
		out.DocNames = append(out.DocNames, p.DocNames...)
		if p.Stats.MaxDepth > out.Stats.MaxDepth {
			out.Stats.MaxDepth = p.Stats.MaxDepth
		}
		out.Stats.TextNodes += p.Stats.TextNodes
	}
	out.finalizeStats()
	return out
}
