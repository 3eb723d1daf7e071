package index

import (
	"fmt"

	"repro/internal/xmltree"
)

// AppendAs indexes doc as document number docID of the repository behind
// ix and returns a new merged index; ix itself is not modified (indexes are
// immutable once built, which is what makes concurrent searches safe).
// The number must sort strictly after every live document of ix, or the
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
// The document is always delta-appended (packed_append.go): packed
// against the existing shape table at O(document) cost, tombstones kept,
// the base never flattened. The delta path declines when a sibling
// append already extended this generation's arrays, or when docID does
// not sort after a tombstoned document's number. Then the live rows are
// packed once — which compacts the tombstones and starts a fresh lineage
// — and the document is delta-appended onto that.
func AppendAs(ix *Index, doc *xmltree.Document, docID int32, opts Options) (*Index, error) {
	if ix == nil {
		return nil, fmt.Errorf("index: append to nil index")
	}
	// The delta path reads Postings maps directly, so a lazily-backed base
	// is materialized up front (before doc is touched, like validation).
	ix, err := ix.Materialized()
	if err != nil {
		return nil, err
	}
	if doc == nil {
		return nil, fmt.Errorf("index: build of empty document")
	}
	oldID := doc.DocID
	// Validation (and any Build failure) happens before the base is
	// touched and restores doc on error.
	partial, err := buildDocumentAs(doc, docID, opts)
	if err != nil {
		return nil, err
	}
	out, ok := ix.appendPacked(partial)
	if !ok {
		out, ok = ix.flat().pack().appendPacked(partial)
	}
	if !ok {
		renumber(doc, oldID)
		return nil, fmt.Errorf("index: document %q: number %d does not sort after every live document", doc.Name, docID)
	}
	return out, nil
}
