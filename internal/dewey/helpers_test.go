package dewey

// ID helpers that no product code calls: the order tests use the
// validity, ancestry and subtree-range helpers as oracles.

// IsValid reports whether id denotes a node (non-empty path, non-negative
// components).
func (id ID) IsValid() bool {
	if id.Doc < 0 || len(id.Path) == 0 {
		return false
	}
	for _, c := range id.Path {
		if c < 0 {
			return false
		}
	}
	return true
}

// IsAncestorOrSelf reports whether a is b or a proper ancestor of b.
func (id ID) IsAncestorOrSelf(b ID) bool {
	return Equal(id, b) || id.IsAncestorOf(b)
}

// SubtreeEnd returns the smallest ID strictly greater (in document order)
// than every node in the subtree rooted at id. Together with id it bounds
// the half-open Dewey range [id, SubtreeEnd) that holds exactly id's
// subtree. For a document root the end is the root of the next document.
func (id ID) SubtreeEnd() ID {
	if len(id.Path) == 0 {
		return ID{Doc: id.Doc + 1, Path: []int32{0}}
	}
	p := make([]int32, len(id.Path))
	copy(p, id.Path)
	p[len(p)-1]++
	return ID{Doc: id.Doc, Path: p}
}
