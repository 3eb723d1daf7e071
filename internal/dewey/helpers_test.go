package dewey

import (
	"encoding/binary"
	"fmt"
)

// ID helpers that no product code calls. The order tests use the
// validity, ancestry and subtree-range helpers as oracles; the rest (map
// keys, sorting, the binary codec) only their own tests call.

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

// CommonPrefixLen returns the length of the longest common path prefix of a
// and b, or -1 if they are in different documents.
func CommonPrefixLen(a, b ID) int {
	if a.Doc != b.Doc {
		return -1
	}
	n := len(a.Path)
	if len(b.Path) < n {
		n = len(b.Path)
	}
	i := 0
	for i < n && a.Path[i] == b.Path[i] {
		i++
	}
	return i
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

// Key returns a compact string usable as a map key. Distinct IDs have
// distinct keys. The key does not preserve document order; use Compare for
// ordering.
func (id ID) Key() string {
	buf := make([]byte, 0, 4+4*len(id.Path))
	buf = appendUvarint32(buf, uint32(id.Doc))
	for _, c := range id.Path {
		buf = appendUvarint32(buf, uint32(c))
	}
	return string(buf)
}

func appendUvarint32(buf []byte, v uint32) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// Ancestors calls fn for every proper ancestor of id, from the parent up to
// the document root, stopping early if fn returns false.
func (id ID) Ancestors(fn func(ID) bool) {
	for p, ok := id.Parent(); ok; p, ok = p.Parent() {
		if !fn(p) {
			return
		}
	}
}

// Sort sorts ids in document order in place using an insertion-friendly
// comparison; callers with large slices should use sort.Slice with Compare.
func Sort(ids []ID) {
	// Simple binary-insertion sort is fine for the small slices this helper
	// is used with (test fixtures, ancestor sets). Large sorts in the
	// indexer use sort.Slice directly.
	for i := 1; i < len(ids); i++ {
		j := i
		for j > 0 && Compare(ids[j-1], ids[j]) > 0 {
			ids[j-1], ids[j] = ids[j], ids[j-1]
			j--
		}
	}
}

// The binary ID codec of the flat node-table images older builds wrote
// (GKSI version 2, pre-packed GKS4 segments; internal/index's flat_test.go
// writes the same bytes for its fixtures). The format is
//
//	uvarint(doc) uvarint(len(path)) uvarint(path[0]) ... uvarint(path[n-1])
//
// It is self-delimiting so IDs can be concatenated in a stream.

// AppendBinary appends the binary encoding of id to buf and returns the
// extended slice.
func (id ID) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(id.Doc)))
	buf = binary.AppendUvarint(buf, uint64(len(id.Path)))
	for _, c := range id.Path {
		buf = binary.AppendUvarint(buf, uint64(uint32(c)))
	}
	return buf
}

// DecodeBinary decodes one ID from the front of buf, returning the ID and
// the number of bytes consumed.
func DecodeBinary(buf []byte) (ID, int, error) {
	doc, n := binary.Uvarint(buf)
	if n <= 0 {
		return ID{}, 0, fmt.Errorf("dewey: truncated document number")
	}
	off := n
	length, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return ID{}, 0, fmt.Errorf("dewey: truncated path length")
	}
	off += n
	if length > uint64(len(buf)) { // cheap sanity bound: ≥1 byte per component
		return ID{}, 0, fmt.Errorf("dewey: implausible path length %d", length)
	}
	path := make([]int32, length)
	for i := range path {
		c, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return ID{}, 0, fmt.Errorf("dewey: truncated path component %d", i)
		}
		path[i] = int32(uint32(c))
		off += n
	}
	return ID{Doc: int32(uint32(doc)), Path: path}, off, nil
}
