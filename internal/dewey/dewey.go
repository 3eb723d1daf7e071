// Package dewey implements Dewey identifiers for nodes of labeled, ordered
// XML trees, as used by the GKS system (Agarwal et al., EDBT 2016, §2.1) and
// originally proposed by Tatarinov et al. (SIGMOD 2002).
//
// A Dewey ID encodes the position of a node in the tree: the ID of a node is
// the ID of its parent extended with the node's ordinal among its siblings.
// The root of a document has the path [0]. IDs are additionally qualified by
// a document number so that a single index can span a repository of many XML
// documents (§2.4 of the paper: "Dewey id for each node has been appended
// with the document id").
//
// The total order on IDs (document number first, then component-wise path
// order with a shorter prefix sorting before its extensions) equals document
// order, i.e. the pre-order traversal of the forest. Consequently the
// subtree rooted at a node v occupies a contiguous range in any Dewey-sorted
// sequence — the property the GKS search algorithm (§4.1), ranking (§5) and
// the SLCA/ELCA baselines all rely on.
package dewey

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ID identifies a node in a multi-document XML repository.
//
// The zero value is not a valid node ID; valid IDs have a non-empty Path.
type ID struct {
	// Doc is the document number within the repository (0 for the first or
	// only document).
	Doc int32
	// Path is the Dewey path from the document root (Path[0] is always the
	// root ordinal, conventionally 0).
	Path []int32
}

// ErrSyntax is returned by Parse for malformed Dewey strings.
var ErrSyntax = errors.New("dewey: invalid syntax")

// New returns an ID for the given document with the given path components.
// The components are copied.
func New(doc int32, path ...int32) ID {
	p := make([]int32, len(path))
	copy(p, path)
	return ID{Doc: doc, Path: p}
}

// Root returns the ID of the root node of document doc.
func Root(doc int32) ID { return ID{Doc: doc, Path: []int32{0}} }

// Parse parses a Dewey string of the form "d0.p0.p1..." where the first
// component is the document number, e.g. "0.0.1.2". It is the inverse of
// String.
func Parse(s string) (ID, error) {
	parts := strings.Split(s, ".")
	if len(parts) < 2 {
		return ID{}, fmt.Errorf("%w: %q needs a document and at least one path component", ErrSyntax, s)
	}
	nums := make([]int32, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 32)
		if err != nil || v < 0 {
			return ID{}, fmt.Errorf("%w: component %q in %q", ErrSyntax, p, s)
		}
		nums[i] = int32(v)
	}
	return ID{Doc: nums[0], Path: nums[1:]}, nil
}

// MustParse is like Parse but panics on error. It is intended for tests and
// static initialization.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String renders the ID as "doc.p0.p1...". It is the inverse of Parse.
func (id ID) String() string {
	var b strings.Builder
	b.Grow(2 + 3*len(id.Path))
	b.WriteString(strconv.FormatInt(int64(id.Doc), 10))
	for _, c := range id.Path {
		b.WriteByte('.')
		b.WriteString(strconv.FormatInt(int64(c), 10))
	}
	return b.String()
}

// Depth returns the number of edges from the document root to the node
// (the root has depth 0).
func (id ID) Depth() int { return len(id.Path) - 1 }

// Clone returns a deep copy of id.
func (id ID) Clone() ID {
	return New(id.Doc, id.Path...)
}

// Child returns the ID of the ord-th child of id.
func (id ID) Child(ord int32) ID {
	p := make([]int32, len(id.Path)+1)
	copy(p, id.Path)
	p[len(id.Path)] = ord
	return ID{Doc: id.Doc, Path: p}
}

// Parent returns the ID of the parent node and true, or the zero ID and
// false if id is a document root.
func (id ID) Parent() (ID, bool) {
	if len(id.Path) <= 1 {
		return ID{}, false
	}
	return ID{Doc: id.Doc, Path: id.Path[:len(id.Path)-1]}, true
}

// Compare returns -1, 0 or +1 comparing a and b in document order: by
// document number first, then component-wise, with an ancestor (prefix)
// ordering before its descendants.
func Compare(a, b ID) int {
	switch {
	case a.Doc < b.Doc:
		return -1
	case a.Doc > b.Doc:
		return 1
	}
	n := len(a.Path)
	if len(b.Path) < n {
		n = len(b.Path)
	}
	for i := 0; i < n; i++ {
		switch {
		case a.Path[i] < b.Path[i]:
			return -1
		case a.Path[i] > b.Path[i]:
			return 1
		}
	}
	switch {
	case len(a.Path) < len(b.Path):
		return -1
	case len(a.Path) > len(b.Path):
		return 1
	}
	return 0
}

// Equal reports whether a and b identify the same node.
func Equal(a, b ID) bool { return Compare(a, b) == 0 }

// IsAncestorOf reports whether a is a proper ancestor of b (a ≠ b) in the
// same document.
func (id ID) IsAncestorOf(b ID) bool {
	if id.Doc != b.Doc || len(id.Path) >= len(b.Path) {
		return false
	}
	for i, c := range id.Path {
		if b.Path[i] != c {
			return false
		}
	}
	return true
}

// LCA returns the lowest common ancestor of a and b, which must belong to
// the same document; ok is false otherwise.
func LCA(a, b ID) (lca ID, ok bool) {
	if a.Doc != b.Doc {
		return ID{}, false
	}
	n := len(a.Path)
	if len(b.Path) < n {
		n = len(b.Path)
	}
	i := 0
	for i < n && a.Path[i] == b.Path[i] {
		i++
	}
	if i == 0 {
		// Distinct roots cannot happen within one document (all paths start
		// with the same root ordinal), but guard anyway.
		return ID{}, false
	}
	return ID{Doc: a.Doc, Path: append([]int32(nil), a.Path[:i]...)}, true
}
