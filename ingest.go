package gks

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// Live document ingestion: online add, replace and delete without a full
// rebuild. All mutations are copy-on-write — they return a NEW system and
// leave the receiver untouched, so a server can keep answering queries on
// the old system until the new one is atomically swapped in (see
// internal/server's /admin/docs endpoints). A delete is a tombstone mask
// over the shared immutable index, compacted away by the next save or
// append; an add is a partial-index merge.

// ErrDocNotFound reports a mutation against a document name the system
// does not hold (match with errors.Is).
var ErrDocNotFound = index.ErrNotFound

// ErrLastDocument reports a delete that would leave the system empty — an
// index always holds at least one document (match with errors.Is).
var ErrLastDocument = index.ErrLastDocument

// ErrNoLiveIngestion reports an Upsert/Remove against a Searcher
// implementation that has no mutation surface — a deployment problem, not
// a bad request (match with errors.Is).
var ErrNoLiveIngestion = errors.New("does not support live ingestion")

// ErrInvalidDocName reports an upsert whose document name the system
// cannot hold (match with errors.Is). Names route deletes, dedupe
// replacements, key WAL records and appear in snapshot manifests and log
// lines, so an empty or control-character name would create a document
// that is unroutable, undeletable, or corrupts a line-oriented format.
var ErrInvalidDocName = errors.New("invalid document name")

// ValidateDocName enforces the document-name rules every ingestion layer
// shares — non-blank, at most 512 bytes, no NUL/CR/LF. The HTTP admin
// surface applies the same rules at parse time; this is the library-level
// guard for offline paths (`gks add`) and direct API callers.
func ValidateDocName(name string) error {
	switch {
	case strings.TrimSpace(name) == "":
		return fmt.Errorf("gks: %w: empty name", ErrInvalidDocName)
	case len(name) > 512:
		return fmt.Errorf("gks: %w: %d bytes (max 512)", ErrInvalidDocName, len(name))
	case strings.ContainsAny(name, "\x00\n\r"):
		return fmt.Errorf("gks: %w: name contains control characters", ErrInvalidDocName)
	}
	return nil
}

// ContainsDoc reports whether the system holds a live document named name.
func (s *System) ContainsDoc(name string) bool { return s.ix.ContainsDoc(name) }

// DocNames returns the live document names in index order.
func (s *System) DocNames() []string { return s.ix.LiveDocs() }

// UpsertDocument returns a new system with doc added, replacing any
// existing document of the same name (replaced reports whether one
// existed); the receiver is unchanged and safe to keep searching. The
// document is renumbered to the system's next free document id; on
// failure the caller's document is left exactly as passed in.
func (s *System) UpsertDocument(doc *Document) (*System, bool, error) {
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

// WithoutDocument returns a new system with the named document removed;
// the receiver is unchanged. It fails with ErrDocNotFound when the name is
// not held and ErrLastDocument when the delete would empty the system.
func (s *System) WithoutDocument(name string) (*System, error) {
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

// Upsert adds or replaces a document on any Searcher that supports live
// ingestion (System and ShardedSystem) and returns the mutated successor;
// sys itself is unchanged, so the caller controls when (and whether) to
// swap the result into service.
func Upsert(sys Searcher, doc *Document) (Searcher, bool, error) {
	// Validate here too, not just in System.UpsertDocument: the sharded
	// path dispatches straight to shard.Set.WithDocument, which would
	// otherwise accept a name no delete or replace can ever address.
	if doc != nil {
		if err := ValidateDocName(doc.Name); err != nil {
			return nil, false, err
		}
	}
	switch v := sys.(type) {
	case *System:
		next, replaced, err := v.UpsertDocument(doc)
		if err != nil {
			return nil, false, err
		}
		return next, replaced, nil
	case *ShardedSystem:
		next, replaced, err := v.WithDocument(doc)
		if err != nil {
			return nil, false, err
		}
		return next, replaced, nil
	}
	return nil, false, fmt.Errorf("gks: %T %w", sys, ErrNoLiveIngestion)
}

// Remove deletes a document by name on any Searcher that supports live
// ingestion and returns the mutated successor; sys itself is unchanged.
// ErrDocNotFound and ErrLastDocument surface via errors.Is.
func Remove(sys Searcher, name string) (Searcher, error) {
	switch v := sys.(type) {
	case *System:
		next, err := v.WithoutDocument(name)
		if err != nil {
			return nil, err
		}
		return next, nil
	case *ShardedSystem:
		next, err := v.WithoutDocument(name)
		if err != nil {
			return nil, err
		}
		return next, nil
	}
	return nil, fmt.Errorf("gks: %T %w", sys, ErrNoLiveIngestion)
}

// DocHolds returns a probe reporting whether the live document(s) named
// name in sys hold a normalized keyword (a Keyword.Tokens element: a text
// token or an element name); each index resolves the document's ordinal
// spans once, so a probe is a binary search. A name sys does not hold
// yields a probe that is always false. ok is false when sys is neither a
// System nor a ShardedSystem — a wrapper whose documents cannot be
// inspected — and the caller must assume the document may hold anything.
//
// Documents are separate trees, node categories and ranks are computed
// inside a node's own subtree and a document root is never returned, so
// adding, replacing or deleting a document can change the answer to a
// query only if the document, before or after, holds one of the query's
// tokens: this probe is how the server's response cache decides which
// answers a mutation leaves standing.
func DocHolds(sys Searcher, name string) (holds func(token string) bool, ok bool) {
	switch v := sys.(type) {
	case *System:
		return v.ix.DocHolds(name), true
	case *ShardedSystem:
		var probes []func(string) bool
		for _, ix := range v.Indexes() {
			probes = append(probes, ix.DocHolds(name))
		}
		return func(token string) bool {
			for _, p := range probes {
				if p(token) {
					return true
				}
			}
			return false
		}, true
	}
	return nil, false
}
