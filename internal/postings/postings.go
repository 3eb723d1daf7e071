// Package postings implements compressed posting lists for the GKS
// inverted index: strictly increasing node ordinals stored as
// delta-encoded unsigned varints, the standard representation in
// production inverted indexes. The compact binary index format
// (internal/index, format v2) stores every keyword's list this way; the
// paper's own index (§2.4) stores sorted Dewey lists, for which ordinal
// deltas are the dense equivalent.
package postings

import (
	"encoding/binary"
	"fmt"
)

// Encode appends the delta-varint encoding of the strictly increasing
// ordinal list to buf and returns the extended slice. Encode panics if the
// list is not strictly increasing (indexing bugs must not be masked).
func Encode(buf []byte, list []int32) []byte {
	prev := int32(-1)
	for _, v := range list {
		if v <= prev {
			panic(fmt.Sprintf("postings: list not strictly increasing: %d after %d", v, prev))
		}
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	return buf
}

// Decode reads n ordinals from buf, returning the list and the number of
// bytes consumed.
func Decode(buf []byte, n int) ([]int32, int, error) {
	list := make([]int32, 0, n)
	off := 0
	prev := int32(-1)
	for i := 0; i < n; i++ {
		d, w := binary.Uvarint(buf[off:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("postings: truncated at entry %d", i)
		}
		off += w
		next := int64(prev) + int64(d)
		if next > int64(^uint32(0)>>1) {
			return nil, 0, fmt.Errorf("postings: ordinal overflow at entry %d", i)
		}
		prev = int32(next)
		list = append(list, prev)
	}
	return list, off, nil
}

// Intersect returns the intersection of two strictly increasing lists —
// the node-level AND used for phrase keywords.
func Intersect(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
