package index

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// The flat []NodeInfo table is the tests' reference: buildFlat is the
// builder before it seals, rows expands a served column table back into
// that form, and the writers below produce the flat images older builds
// wrote, which every loader must still import.

// rows expands every row of ix's node table, tombstoned ones included.
func rows(ix *Index) []NodeInfo {
	out := make([]NodeInfo, ix.NodeCount())
	for i := range out {
		ord := int32(i)
		out[i] = NodeInfo{
			ID:         ix.IDOf(ord),
			Label:      ix.LabelIDOf(ord),
			Cat:        ix.CatOf(ord),
			ChildCount: ix.ChildCountOf(ord),
			Subtree:    ix.SubtreeSizeOf(ord),
			Parent:     ix.ParentOf(ord),
			HasValue:   ix.HasValueAt(ord),
			Value:      ix.ValueAt(ord),
		}
	}
	return out
}

// flatBuild is the builder's flat table for repo: the reference a served
// index must reproduce.
func flatBuild(tb testing.TB, repo *xmltree.Repository) *Index {
	tb.Helper()
	ix, err := buildFlat(repo, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// flatNodeBytes is the heap footprint the flat table would have: the
// NodeInfo structs plus every Dewey path backing array and value string.
func flatNodeBytes(nodes []NodeInfo) int64 {
	const nodeInfoSize = 72 // unsafe.Sizeof(NodeInfo{}) on 64-bit
	b := int64(len(nodes)) * nodeInfoSize
	for i := range nodes {
		b += int64(len(nodes[i].ID.Path))*4 + int64(len(nodes[i].Value))
	}
	return b
}

// writeFlatMeta writes the labels/docs sections and the flat per-node
// table: the meta layout of GKSI version 2 and of flat-meta GKS4 segments.
func writeFlatMeta(w *binWriter, ix *Index) {
	w.uvarint(uint64(len(ix.Labels)))
	for _, l := range ix.Labels {
		w.str(l)
	}
	w.uvarint(uint64(len(ix.DocNames)))
	for _, d := range ix.DocNames {
		w.str(d)
	}
	nodes := rows(ix)
	w.uvarint(uint64(len(nodes)))
	for i := range nodes {
		n := &nodes[i]
		// The Dewey ID: document, path length and components, uvarints.
		w.uvarint(uint64(uint32(n.ID.Doc)))
		w.uvarint(uint64(len(n.ID.Path)))
		for _, c := range n.ID.Path {
			w.uvarint(uint64(uint32(c)))
		}
		w.uvarint(uint64(n.Label))
		w.bw.WriteByte(byte(n.Cat))
		w.uvarint(uint64(n.ChildCount))
		w.uvarint(uint64(n.Subtree))
		w.uvarint(uint64(n.Parent + 1))
		if n.HasValue {
			w.bw.WriteByte(1)
			w.str(n.Value)
		} else {
			w.bw.WriteByte(0)
		}
	}
}

// flatMeta is ix's meta section as a flat-meta GKS4 writer stored it.
func flatMeta(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := &binWriter{bw: bufio.NewWriter(&buf)}
	writeFlatMeta(w, ix)
	if err := w.bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// flatGKSI is ix as a GKSI version-2 image.
func flatGKSI(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := &binWriter{bw: bufio.NewWriter(&buf)}
	w.bw.WriteString(binaryMagic)
	w.uvarint(binaryVersionFlat)
	writeFlatMeta(w, ix)
	if err := w.writePostingsAndStats(ix); err != nil {
		tb.Fatal(err)
	}
	if err := w.bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// flatGKS3 is flatGKSI in the checksummed snapshot envelope.
func flatGKS3(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := sealSnapshot(&buf, flatGKSI(tb, ix)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
