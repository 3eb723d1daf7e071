package index

import (
	"fmt"

	"repro/internal/xmltree"
)

// Append indexes doc as the next document of the repository behind ix and
// returns a new merged index; ix itself is not modified (indexes are
// immutable once built, which is what makes concurrent searches safe).
// The document is renumbered to the next free live document id.
//
// Because documents are independent subtrees under distinct Dewey document
// numbers, appending reduces to the same partial-index merge used by the
// parallel builder: the new document's ordinals all sort after the
// existing ones, so posting lists stay sorted and subtree ranges stay
// contiguous.
//
// On failure the caller's document is left exactly as it was passed in,
// so it can be retried against another index.
func Append(ix *Index, doc *xmltree.Document, opts Options) (*Index, error) {
	if ix == nil {
		return nil, fmt.Errorf("index: append to nil index")
	}
	return AppendAs(ix, doc, ix.NextDocID(), opts)
}

// AppendAs is Append with an explicit Dewey document number. The number
// must sort at or after every live document of ix, or the merged node
// table would fall out of Dewey order; callers that don't care should use
// Append, which picks the next free id.
//
// On a packed base the delta-maintaining pack (packed_append.go) applies
// whenever it can: the new document is packed against the existing shape
// table at O(document) cost, tombstones survive, and the base is never
// flattened. When the delta path declines — the document number collides
// with a tombstoned document's, or a sibling append already extended this
// generation's arrays — the legacy flatten-splice-repack path below runs
// instead, which also compacts any tombstones away.
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
	partial, err := BuildDocumentAs(doc, docID, opts)
	if err != nil {
		return nil, err
	}
	if ix.IsPacked() {
		if out, ok := ix.appendPacked(partial); ok {
			return out, nil
		}
	}
	return appendMerged(ix, partial)
}

// appendMerged is the legacy splice: flatten (compacting tombstones),
// merge the flat tables, and re-pack when the base was packed.
func appendMerged(ix, partial *Index) (*Index, error) {
	repack := ix.IsPacked()
	merged, err := mergePartials([]*Index{ix.Compacted().Unpacked(), partial})
	if err != nil || !repack {
		return merged, err
	}
	return merged.Pack(), nil
}

// AppendBatch indexes docs — renumbered sequentially from the base's next
// free document id, in slice order — and merges them in a single splice:
// the base is flattened once, every partial merges in one mergePartials
// call, and a packed base re-packs exactly once at the end. This is the
// WAL-replay batch path: replaying K records used to pay K full
// unpack/repack cycles (O(N·K)); now boot replay packs once regardless of
// K. An empty batch returns the base itself, a lazy one still lazy.
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
	repack := ix.IsPacked()
	// Unpacked preserves the tombstone mask; compacting the flat table
	// removes the dead rows without triggering a re-pack.
	flat := ix.Unpacked().Compacted()
	parts := make([]*Index, 0, len(docs)+1)
	parts = append(parts, flat)
	id := flat.NextDocID()
	for _, doc := range docs {
		part, err := BuildDocumentAs(doc, id, opts)
		if err != nil {
			return nil, err
		}
		id++
		parts = append(parts, part)
	}
	merged, err := mergePartials(parts)
	if err != nil || !repack {
		return merged, err
	}
	return merged.Pack(), nil
}
