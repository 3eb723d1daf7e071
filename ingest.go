package gks

import (
	"errors"
	"fmt"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// Live document ingestion: online add, replace and delete without a full
// rebuild. All mutations are copy-on-write — they return a NEW system and
// leave the receiver untouched, so a server can keep answering queries on
// the old system until the new one is atomically swapped in (see
// internal/server's /admin/docs endpoints). A delete is a tombstone mask
// over the shared immutable index, compacted away by the next save or
// repack; an add is a column append (index.AppendAs).

// ErrDocNotFound reports a mutation against a document name the system
// does not hold (match with errors.Is).
var ErrDocNotFound = index.ErrNotFound

// ErrLastDocument reports a delete that would leave the system empty — an
// index always holds at least one document (match with errors.Is).
var ErrLastDocument = index.ErrLastDocument

// ErrInvalidDocName reports an upsert whose document name the system
// cannot hold (match with errors.Is); see ValidateDocName.
var ErrInvalidDocName = index.ErrInvalidDocName

// ValidateDocName enforces the document-name rules every ingestion layer
// shares — non-blank, at most 512 bytes, no NUL/CR/LF. Every Searcher's
// Upsert checks them.
func ValidateDocName(name string) error { return index.ValidateDocName(name) }

// ContainsDoc reports whether the system holds a live document named name.
func (s *System) ContainsDoc(name string) bool { return s.ix.ContainsDoc(name) }

// DocNames returns the live document names in index order.
func (s *System) DocNames() []string { return s.ix.LiveDocs() }

// Upsert returns a new system with doc added, replacing any existing
// document of the same name (replaced reports whether one existed); the
// receiver is unchanged and safe to keep searching. The document is
// renumbered to the system's next free document id; on failure the
// caller's document is left exactly as passed in.
func (s *System) Upsert(doc *Document) (Searcher, bool, error) {
	if doc == nil || doc.Root == nil {
		return nil, false, fmt.Errorf("gks: upsert of empty document")
	}
	if err := ValidateDocName(doc.Name); err != nil {
		return nil, false, err
	}
	ix := s.ix
	replaced := false
	if ix.ContainsDoc(doc.Name) {
		next, err := ix.DeleteDoc(doc.Name)
		switch {
		case err == nil:
			ix = next
		case errors.Is(err, index.ErrLastDocument):
			// Replacing the only document: nothing survives to merge onto,
			// so build a fresh one-document index from scratch.
			fresh, err := index.BuildDocumentAs(doc, 0, index.DefaultOptions())
			if err != nil {
				return nil, false, err
			}
			return newSystem(fresh, s.repoAfterUpsert(doc)), true, nil
		default:
			return nil, false, err
		}
		replaced = true
	}
	next, err := index.AppendAs(ix, doc, ix.NextDocID(), index.DefaultOptions())
	if err != nil {
		return nil, false, err
	}
	return newSystem(next, s.repoAfterUpsert(doc)), replaced, nil
}

// Remove returns a new system with the named document removed; the
// receiver is unchanged. It fails with ErrDocNotFound when the name is not
// held and ErrLastDocument when the delete would empty the system.
func (s *System) Remove(name string) (Searcher, error) {
	next, err := s.ix.DeleteDoc(name)
	if err != nil {
		return nil, err
	}
	var repo *xmltree.Repository
	if s.repo != nil {
		repo = &xmltree.Repository{Docs: docsWithout(s.repo.Docs, name)}
	}
	return newSystem(next, repo), nil
}

// repoAfterUpsert carries the retained document trees (chunks, snippets,
// XPath) across an upsert: same-name documents drop out, the new one
// appends. A system without documents (loaded from a snapshot) stays
// document-free — searches work either way.
func (s *System) repoAfterUpsert(doc *Document) *xmltree.Repository {
	if s.repo == nil {
		return nil
	}
	return &xmltree.Repository{Docs: append(docsWithout(s.repo.Docs, doc.Name), doc)}
}

func docsWithout(docs []*xmltree.Document, name string) []*xmltree.Document {
	out := make([]*xmltree.Document, 0, len(docs))
	for _, d := range docs {
		if d.Name != name {
			out = append(out, d)
		}
	}
	return out
}

// DocHolds returns the probe Searcher.DocHolds describes; each index
// resolves the document's ordinal spans once, so a probe is a binary
// search.
func (s *System) DocHolds(name string) func(token string) bool { return s.ix.DocHolds(name) }

// Upsert is sys.Upsert(doc): it adds or replaces a document and returns the
// mutated successor; sys itself is unchanged, so the caller controls when
// (and whether) to swap the result into service.
func Upsert(sys Searcher, doc *Document) (Searcher, bool, error) { return sys.Upsert(doc) }

// Remove is sys.Remove(name). ErrDocNotFound and ErrLastDocument surface
// via errors.Is.
func Remove(sys Searcher, name string) (Searcher, error) { return sys.Remove(name) }
