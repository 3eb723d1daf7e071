package index

import (
	"fmt"
	"slices"

	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// Building. The paper categorizes nodes "in a single pass" over their
// pre-order arrival (§2.2); one event builder does exactly that, writing
// the resident column table (packed.go) as it reads. A driver reports an
// element as open(label), each of its text children as text(s) and its end
// as close(). At open the builder appends the element's row — label,
// parent, trailing Dewey component, depth — and posts its label keyword;
// at close it completes the row — subtree size, child count, value —,
// posts the value's keywords and classifies the element's children (Defs
// 2.1.1–2.1.4), whose sibling multiplicity is known only then. A document
// root has no siblings and is classified at its own close.
//
// Two drivers feed the builder: the iterative pre-order walk over a parsed
// tree below (Build, BuildDocument, BuildDocumentAs and so AppendAs), and
// the encoding/xml token loop of stream.go (BuildStreamFiles). The same
// document gives the same index through either.
//
// Scratch is one frame per open element, one summary per finished child
// of an open element and the open elements' text, all reused from element
// to element: no element allocates a frame, a map or a Dewey path, so the
// build is linear in the document whatever its depth.
type builder struct {
	ix   *Index
	c    *nodeColumns
	opts Options
	norm *textproc.Memo
	// listCap seeds the capacity of new posting lists (average postings
	// per term from Options.Hint), 0 to grow on demand.
	listCap int

	doc int32 // Dewey document number of the document being built

	labelKeys []string // label id → its keyword, "" when it posts none
	sibs      []int32  // label id → count among the children being classified
	vals      []string // value id → value; valIDs inverts it
	valIDs    map[string]int32
	// unsorted holds the keywords whose list took an ordinal below its
	// last one: an element's value is posted at its close, after its
	// descendants', so mixed content posts out of order.
	unsorted map[string]struct{}

	frames []frame   // the open elements, innermost last
	kids   []kid     // finished children of the open elements
	buf    []byte    // direct text of the open elements, innermost last
	walk   []treePos // the tree driver's stack
}

// frame is an open element.
type frame struct {
	ord   int32
	next  int32 // children so far: the next child's trailing Dewey component
	texts int32 // text children so far
	text  int   // where the element's text begins in builder.buf
	kids  int   // where the element's finished children begin in builder.kids
}

// kid is what an element needs of a finished child to classify it.
type kid struct {
	ord, label      int32
	direct          bool  // the child's only child is one text node
	attr, rep, both int32 // visibility tallies of the child's own children
}

func newBuilder(opts Options, nodes int) *builder {
	b := &builder{
		ix: &Index{
			Postings: make(map[string][]int32, opts.Hint.Terms),
			labelIDs: make(map[string]int32),
		},
		c:      newColumns(nodes),
		opts:   opts,
		norm:   textproc.NewMemo(),
		valIDs: make(map[string]int32),
	}
	b.ix.cols = b.c
	if opts.Hint.Terms > 0 && opts.Hint.Postings > opts.Hint.Terms {
		b.listCap = opts.Hint.Postings / opts.Hint.Terms
	}
	return b
}

// begin starts document number num, named name; its root is the next
// element opened.
func (b *builder) begin(num int32, name string) {
	b.doc = num
	b.ix.DocNames = append(b.ix.DocNames, name)
}

// open appends the row of an element that starts here.
func (b *builder) open(label string) {
	c := b.c
	ord := int32(len(c.label))
	lid := b.labelID(label)
	// A root's trailing component is dewey.Root's; a child's is its
	// position among its parent's element and text children.
	parent, last, depth := int32(-1), int32(0), int32(len(b.frames))
	if depth > 0 {
		p := &b.frames[depth-1]
		parent, last = p.ord, p.next
		p.next++
	} else {
		c.docStart = append(c.docStart, ord)
		c.docNum = append(c.docNum, b.doc)
	}
	if depth <= 1 {
		c.recStart = append(c.recStart, ord)
	}
	c.label = append(c.label, lid)
	c.cat = append(c.cat, 0)
	c.child = append(c.child, 0)
	c.subtree = append(c.subtree, 0)
	c.parent = append(c.parent, parent)
	c.last = append(c.last, last)
	c.depth = append(c.depth, depth)
	c.val = append(c.val, -1)
	if int(depth) > b.ix.Stats.MaxDepth {
		b.ix.Stats.MaxDepth = int(depth)
	}
	if key := b.labelKeys[lid]; key != "" {
		b.post(key, ord)
	}
	b.frames = append(b.frames, frame{ord: ord, text: len(b.buf), kids: len(b.kids)})
}

// text adds a text child to the innermost open element. Its value is the
// element's text children joined by single spaces (xmltree.Node.Value).
func (b *builder) text(s string) {
	f := &b.frames[len(b.frames)-1]
	if f.texts > 0 {
		b.buf = append(b.buf, ' ')
	}
	b.buf = append(b.buf, s...)
	f.texts++
	f.next++
	b.ix.Stats.TextNodes++
}

// close completes the innermost open element's row and classifies its
// children.
func (b *builder) close() {
	top := len(b.frames) - 1
	f := b.frames[top]
	b.frames = b.frames[:top]
	c := b.c
	c.subtree[f.ord] = int32(len(c.label)) - f.ord
	c.child[f.ord] = f.next
	if f.texts > 0 {
		c.val[f.ord] = b.value(f.ord, b.buf[f.text:])
		b.buf = b.buf[:f.text]
	}
	attr, rep, both := b.classifyKids(b.kids[f.kids:])
	b.kids = b.kids[:f.kids]
	direct := f.texts == 1 && f.next == 1
	if top == 0 {
		b.setCat(f.ord, Classify(direct, false, attr, rep, both))
		return
	}
	b.kids = append(b.kids, kid{ord: f.ord, label: c.label[f.ord], direct: direct, attr: attr, rep: rep, both: both})
}

// classifyKids categorizes the finished children of one element — a child is
// repeating when a sibling shares its label (Def 2.1.2) — and returns the
// element's visibility tallies: how many children expose only a
// qualifying attribute node, only a repeating endpoint, or both.
func (b *builder) classifyKids(kids []kid) (attr, rep, both int32) {
	for _, k := range kids {
		b.sibs[k.label]++
	}
	for _, k := range kids {
		cat := Classify(k.direct, b.sibs[k.label] > 1, k.attr, k.rep, k.both)
		b.setCat(k.ord, cat)
		switch qa, rv := Visibility(cat, k.attr, k.rep, k.both); {
		case qa && rv:
			both++
		case qa:
			attr++
		case rv:
			rep++
		}
	}
	for _, k := range kids {
		b.sibs[k.label] = 0
	}
	return attr, rep, both
}

func (b *builder) setCat(ord int32, cat Category) {
	b.c.cat[ord] = uint8(cat)
	b.ix.Stats.addCategory(cat)
}

// value interns the direct text v of the element at ord and posts its
// keywords, each once. Inverted-index entries follow the paper's §2.4; the
// label keyword was posted at open, and a value repeating the element's
// own name (an <author> whose text says "author") must not post the
// ordinal twice — lists are strictly increasing by invariant, and the
// codec enforces it.
func (b *builder) value(ord int32, v []byte) int32 {
	c := b.c
	id, ok := b.valIDs[string(v)]
	if !ok {
		id = int32(len(b.vals))
		s := string(v)
		b.vals = append(b.vals, s)
		b.valIDs[s] = id
		c.valArena = append(c.valArena, v...)
		c.valOff = append(c.valOff, int32(len(c.valArena)))
	}
	labelKey := b.labelKeys[c.label[ord]]
	for _, tok := range b.norm.Normalize(b.vals[id]) {
		if tok != labelKey || labelKey == "" {
			b.post(tok, ord)
		}
	}
	return id
}

// post appends ord to keyword's list unless it already ends there. The
// posts of one element's value are contiguous, so a repeated token meets
// its own ordinal last.
func (b *builder) post(keyword string, ord int32) {
	list, ok := b.ix.Postings[keyword]
	if n := len(list); n > 0 && list[n-1] >= ord {
		if list[n-1] == ord {
			return
		}
		if b.unsorted == nil {
			b.unsorted = make(map[string]struct{})
		}
		b.unsorted[keyword] = struct{}{}
	}
	if !ok && b.listCap > 0 {
		list = make([]int32, 0, b.listCap)
	}
	b.ix.Postings[keyword] = append(list, ord)
}

func (b *builder) labelID(label string) int32 {
	if id, ok := b.ix.labelIDs[label]; ok {
		return id
	}
	id := int32(len(b.ix.Labels))
	b.ix.Labels = append(b.ix.Labels, label)
	b.ix.labelIDs[label] = id
	key := ""
	if b.opts.IndexElementNames {
		key = b.norm.NormalizeKeyword(label)
	}
	b.labelKeys = append(b.labelKeys, key)
	b.sibs = append(b.sibs, 0)
	return id
}

// finish restores Dewey order to the lists mixed content disordered,
// completes the statistics and returns the index.
func (b *builder) finish() *Index {
	ix := b.ix
	for kw := range b.unsorted {
		slices.Sort(ix.Postings[kw])
	}
	s := &ix.Stats
	s.Documents = len(ix.DocNames)
	s.ElementNodes = len(b.c.label)
	s.DistinctKeywords = len(ix.Postings)
	for _, p := range ix.Postings {
		s.PostingEntries += len(p)
	}
	return ix
}

// treePos is a tree-walk position: the next child of n to visit.
type treePos struct {
	n *xmltree.Node
	i int
}

// addTree feeds the element tree under root to the builder as document
// number num, by an iterative pre-order walk: a deep document costs heap,
// not stack.
func (b *builder) addTree(root *xmltree.Node, num int32, name string) {
	b.begin(num, name)
	b.open(root.Label)
	stack := append(b.walk[:0], treePos{n: root})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.i == len(top.n.Children) {
			b.close()
			stack = stack[:len(stack)-1]
			continue
		}
		ch := top.n.Children[top.i]
		top.i++
		if ch.IsElement() {
			b.open(ch.Label)
			stack = append(stack, treePos{n: ch})
		} else {
			b.text(ch.Text)
		}
	}
	b.walk = stack
}

// checkRoot rejects a document the tree driver cannot walk.
func checkRoot(doc *xmltree.Document) error {
	if doc.Root == nil {
		return fmt.Errorf("index: document %q has no root", doc.Name)
	}
	if !doc.Root.IsElement() {
		return fmt.Errorf("index: document %q root is not an element", doc.Name)
	}
	return nil
}

// Build indexes the repository in one pass, each document under its
// DocID.
func Build(repo *xmltree.Repository, opts Options) (*Index, error) {
	if repo == nil || len(repo.Docs) == 0 {
		return nil, fmt.Errorf("index: empty repository")
	}
	nodes := opts.Hint.Nodes
	for _, doc := range repo.Docs {
		if err := checkRoot(doc); err != nil {
			return nil, err
		}
		if opts.Hint.Nodes <= 0 {
			// Count the rows, so every column is allocated once, at its
			// final size.
			nodes += doc.ElementCount()
		}
	}
	b := newBuilder(opts, nodes)
	for _, doc := range repo.Docs {
		b.addTree(doc.Root, doc.DocID, doc.Name)
	}
	return b.finish(), nil
}

// BuildDocument indexes a single document as a one-document repository.
func BuildDocument(doc *xmltree.Document, opts Options) (*Index, error) {
	return Build(&xmltree.Repository{Docs: []*xmltree.Document{doc}}, opts)
}

// BuildDocumentAs indexes a single document under an explicit Dewey
// document number, which the document takes too (its DocID and node IDs).
// Everything that can fail is checked before the caller's tree is
// touched, so a failed build leaves the document usable for a retry
// elsewhere.
func BuildDocumentAs(doc *xmltree.Document, docID int32, opts Options) (*Index, error) {
	if doc == nil {
		return nil, fmt.Errorf("index: build of empty document")
	}
	if err := checkRoot(doc); err != nil {
		return nil, err
	}
	if docID < 0 {
		return nil, fmt.Errorf("index: document %q: negative document id %d", doc.Name, docID)
	}
	renumber(doc, docID)
	b := newBuilder(opts, doc.ElementCount())
	b.addTree(doc.Root, docID, doc.Name)
	return b.finish(), nil
}

// renumber gives doc the Dewey document number docID, all its nodes with it.
func renumber(doc *xmltree.Document, docID int32) {
	doc.DocID = docID
	doc.AssignIDs()
}

// Classify applies Defs 2.1.1–2.1.4 given whether the node directly
// contains its value, whether it repeats among its siblings and its
// children's visibility tallies (see Visibility). The builder decides
// repetition from the siblings in the data; schema.Categorize decides it
// from the schema.
func Classify(directValue, isRep bool, attr, rep, both int32) Category {
	switch {
	case directValue && isRep:
		// "A node that directly contains its value and also has siblings
		// with the same XML tag is considered a repeating node."
		return Repeating
	case directValue:
		return Attribute
	}
	var cat Category
	if isRep {
		cat |= Repeating
	}
	if entityTest(attr, rep, both) {
		cat |= Entity
	}
	if cat == 0 {
		// Connecting = none of AN/RN/EN (Def 2.1.4).
		cat = Connecting
	}
	return cat
}

// Visibility returns what a node of category cat, whose children's tallies
// are attr, rep and both, exposes to its parent (§2.2): qa when its
// subtree shows an attribute node not hidden inside a repeating node, rv
// when it shows a repeating-node endpoint. A parent's tallies count its
// children exposing only qa, only rv, or both.
func Visibility(cat Category, attr, rep, both int32) (qa, rv bool) {
	switch {
	case cat&Repeating != 0:
		// A repeating node is itself a repeating endpoint and hides any
		// attribute nodes inside it (Def 2.1.3: attributes "do not occur in
		// any repeating node").
		return false, true
	case cat == Attribute:
		return true, false
	default:
		return attr+both > 0, rep+both > 0
	}
}

// entityTest implements Def 2.1.3: the node is the *lowest* common ancestor
// of a qualifying attribute node and a repeating group exactly when the
// attribute and the repeating endpoint are exposed by two distinct children
// (if a single child exposed both, that child's subtree would contain the
// whole set and the LCA would be deeper).
func entityTest(attr, rep, both int32) bool {
	switch {
	case both >= 2:
		return true
	case both == 1:
		return attr+rep >= 1
	default:
		return attr >= 1 && rep >= 1
	}
}
