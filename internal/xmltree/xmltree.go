// Package xmltree models XML documents as the labeled, ordered trees the GKS
// system operates on (Agarwal et al., EDBT 2016, §2.1).
//
// A node in the tree is either an element, carrying its tag label, or a text
// node carrying a value. XML attributes are normalized into leading child
// elements (<a k="v"> becomes <a><k>v</k>...</a>), matching the paper's
// element-only data model in which "attribute nodes" are ordinary elements
// that directly contain their value (Def 2.1.1). Every node is labeled with
// a Dewey identifier; children are numbered in document order, so iterating
// a document pre-order visits Dewey IDs in increasing order.
//
// A Repository groups several documents under distinct document numbers —
// the paper's multi-file search setting (§2.4, "GKS search is seamlessly
// expanded over multiple documents by prefixing Dewey ids with corresponding
// document id").
package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dewey"
)

// Kind distinguishes element nodes from text nodes.
type Kind uint8

const (
	// Element is an XML element node (including normalized attributes).
	Element Kind = iota
	// Text is a text node directly containing a value.
	Text
)

// Node is one node of a labeled XML tree.
type Node struct {
	// Kind reports whether the node is an Element or Text node.
	Kind Kind
	// Label is the element tag; empty for text nodes.
	Label string
	// Text is the node value; empty for element nodes.
	Text string
	// ID is the node's Dewey identifier, assigned by the owning Document.
	ID dewey.ID
	// Parent is the parent node; nil for a document root.
	Parent *Node
	// Children holds the node's children in document order.
	Children []*Node
}

// Document is a single parsed XML document within a repository.
type Document struct {
	// Name is a human-readable identifier (usually a file name).
	Name string
	// DocID is the repository-wide document number used in Dewey IDs.
	DocID int32
	// Root is the document element.
	Root *Node
}

// Repository is an ordered collection of documents indexed and searched as
// one data set.
type Repository struct {
	Docs []*Document
}

// ErrNoRoot is returned when a parsed document contains no element.
var ErrNoRoot = errors.New("xmltree: document has no root element")

// E constructs an element node with the given label and children. It is the
// tree-building primitive used by tests, generators and examples.
func E(label string, children ...*Node) *Node {
	n := &Node{Kind: Element, Label: label}
	for _, c := range children {
		n.Append(c)
	}
	return n
}

// T constructs a text node with the given value.
func T(value string) *Node { return &Node{Kind: Text, Text: value} }

// ET constructs an element that directly contains a single text value —
// the paper's "text node", e.g. ET("Name", "Databases").
func ET(label, value string) *Node { return E(label, T(value)) }

// Append adds child as the last child of n and sets its parent pointer.
func (n *Node) Append(child *Node) {
	child.Parent = n
	n.Children = append(n.Children, child)
}

// IsElement reports whether the node is an element node.
func (n *Node) IsElement() bool { return n.Kind == Element }

// Value returns the concatenation of the node's direct text children,
// separated by single spaces. For a text node it returns the node's text.
func (n *Node) Value() string {
	if n.Kind == Text {
		return n.Text
	}
	var parts []string
	for _, c := range n.Children {
		if c.Kind == Text {
			parts = append(parts, c.Text)
		}
	}
	return strings.Join(parts, " ")
}

// DirectlyContainsValue reports whether the element's children are exactly
// one text node — the paper's notion of an element that "directly contains
// its value".
func (n *Node) DirectlyContainsValue() bool {
	return n.Kind == Element && len(n.Children) == 1 && n.Children[0].Kind == Text
}

// Walk visits n and its subtree in pre-order (document order). If fn
// returns false for a node, that node's subtree is skipped.
func Walk(n *Node, fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		Walk(c, fn)
	}
}

// NewDocument wraps a constructed tree in a Document and assigns Dewey IDs.
func NewDocument(name string, docID int32, root *Node) *Document {
	d := &Document{Name: name, DocID: docID, Root: root}
	d.AssignIDs()
	return d
}

// AssignIDs (re)labels the whole document with Dewey IDs: the root gets
// dewey.Root(DocID) and each child the parent's ID extended with its ordinal.
// The paths are carved from one array sized by a first pass, each with its
// capacity capped at its length, so a document costs one allocation rather
// than one per node.
func (d *Document) AssignIDs() {
	if d.Root == nil {
		return
	}
	size := 0
	var measure func(n *Node, depth int)
	measure = func(n *Node, depth int) {
		size += depth + 1
		for _, c := range n.Children {
			measure(c, depth+1)
		}
	}
	measure(d.Root, 0)
	slab := make([]int32, size)
	carve := func(parent []int32, ord int32) []int32 {
		k := len(parent) + 1
		path := slab[:k:k]
		slab = slab[k:]
		copy(path, parent)
		path[k-1] = ord
		return path
	}
	var assign func(n *Node, path []int32)
	assign = func(n *Node, path []int32) {
		n.ID = dewey.ID{Doc: d.DocID, Path: path}
		for i, c := range n.Children {
			assign(c, carve(path, int32(i)))
		}
	}
	assign(d.Root, carve(nil, dewey.Root(d.DocID).Path[0]))
}

// NodeCount returns the number of nodes (elements and text nodes) in the
// document.
func (d *Document) NodeCount() int {
	count := 0
	Walk(d.Root, func(*Node) bool { count++; return true })
	return count
}

// ElementCount returns the number of element nodes in the document.
func (d *Document) ElementCount() int {
	count := 0
	Walk(d.Root, func(n *Node) bool {
		if n.IsElement() {
			count++
		}
		return true
	})
	return count
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (d *Document) Depth() int {
	var depth func(n *Node) int
	depth = func(n *Node) int {
		max := 0
		for _, c := range n.Children {
			if d := depth(c) + 1; d > max {
				max = d
			}
		}
		return max
	}
	if d.Root == nil {
		return 0
	}
	return depth(d.Root)
}

// FindByID returns the node with the given Dewey ID, or nil if the ID does
// not denote a node of this document.
func (d *Document) FindByID(id dewey.ID) *Node {
	if d.Root == nil || id.Doc != d.DocID || len(id.Path) == 0 || id.Path[0] != d.Root.ID.Path[0] {
		return nil
	}
	n := d.Root
	for _, ord := range id.Path[1:] {
		if int(ord) >= len(n.Children) {
			return nil
		}
		n = n.Children[int(ord)]
	}
	return n
}

// Parse reads one XML document from r. XML attributes become leading child
// elements, each holding its value as a text child; comments, processing
// instructions and directives are ignored. Character data and attribute
// values alike are trimmed, and give no text child when nothing is left.
func Parse(r io.Reader, docID int32, name string) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parsing %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Kind: Element, Label: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				at := E(a.Name.Local)
				if v := strings.TrimSpace(a.Value); v != "" {
					at.Append(T(v))
				}
				n.Append(at)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parsing %s: multiple root elements", name)
				}
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parsing %s: unbalanced end element %s", name, t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := strings.TrimSpace(string(t))
			if text == "" || len(stack) == 0 {
				continue
			}
			stack[len(stack)-1].Append(T(text))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parsing %s: %w", name, ErrNoRoot)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parsing %s: unexpected end of input inside <%s>", name, stack[len(stack)-1].Label)
	}
	return NewDocument(name, docID, root), nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string, docID int32, name string) (*Document, error) {
	return Parse(strings.NewReader(s), docID, name)
}

// ParseFile parses the XML document stored at path.
func ParseFile(path string, docID int32) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmltree: %w", err)
	}
	defer f.Close()
	return Parse(f, docID, path)
}

// Add appends doc to the repository, renumbering it to the next free
// document ID and reassigning Dewey IDs.
func (r *Repository) Add(doc *Document) {
	doc.DocID = int32(len(r.Docs))
	doc.AssignIDs()
	r.Docs = append(r.Docs, doc)
}

// FindByID locates a node across all documents of the repository.
func (r *Repository) FindByID(id dewey.ID) *Node {
	if id.Doc < 0 || int(id.Doc) >= len(r.Docs) {
		return nil
	}
	return r.Docs[id.Doc].FindByID(id)
}

// NodeCount returns the total node count over all documents.
func (r *Repository) NodeCount() int {
	total := 0
	for _, d := range r.Docs {
		total += d.NodeCount()
	}
	return total
}
