package index

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/dewey"
	"repro/internal/textproc"
)

// Streaming index construction: a streamBuilder consumes XML token streams
// directly, without materializing the document tree — the paper's "single
// pass over the data" (§2.2: "XML documents follow pre-order arrival of
// nodes. Hence, different node types are identified in a single pass")
// made literal. Peak memory is O(depth + index) instead of
// O(document + index), which is what lets the real 1.45 GB DBLP dump be
// indexed on a laptop.
//
// The resulting index is identical to Build over the parsed tree
// (property-tested): categorization is deferred to each element's parent
// (sibling multiplicity is only known then), and posting lists are sorted
// once at the end because mixed-content text can arrive after descendant
// elements.

// streamFrame is the per-open-element state.
type streamFrame struct {
	ord        int32
	childCount int32 // elements + text children
	elemOrder  int32 // ordinal for the next child (elements and text)
	depth      int
	textChunks []string
	seenTokens map[string]bool
	labelCount map[int32]int // element children per label
	children   []childSummary
}

// childSummary carries what the parent needs to classify a finished child.
type childSummary struct {
	ord         int32
	label       int32
	directValue bool
	attrC       int // the child's own child-visibility tallies
	repC        int
	bothC       int
}

// BuildStreamFiles streams every file, in order, into one flat table —
// file i is document number i, and ordinals, labels and postings continue
// from file to file — and packs it: equivalent to parsing and Build-ing
// all files.
func BuildStreamFiles(paths []string, opts Options) (*Index, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("index: no input files")
	}
	b := newStreamBuilder(opts)
	for i, p := range paths {
		if err := b.addFile(p, int32(i)); err != nil {
			return nil, err
		}
	}
	return b.finish().pack(), nil
}

// streamBuilder accumulates streamed documents into one flat table.
type streamBuilder struct {
	ix    *Index
	opts  Options
	docID int32 // the document being streamed
	norm  *textproc.Memo
}

func newStreamBuilder(opts Options) *streamBuilder {
	return &streamBuilder{
		ix: &Index{
			Postings: make(map[string][]int32),
			labelIDs: make(map[string]int32),
		},
		opts: opts,
		norm: textproc.NewMemo(),
	}
}

// add streams one XML document from r into the table as document docID,
// which must exceed every number added before it.
func (b *streamBuilder) add(r io.Reader, docID int32, name string) error {
	b.docID = docID
	b.ix.DocNames = append(b.ix.DocNames, name)
	return b.run(r, name)
}

// addFile is add over the XML file at path, named by its path.
func (b *streamBuilder) addFile(path string, docID int32) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return b.add(f, docID, path)
}

// finish returns the flat table. Mixed content can emit an ancestor's
// text tokens after descendant ordinals; one final sort restores
// per-keyword Dewey order.
func (b *streamBuilder) finish() *Index {
	for _, list := range b.ix.Postings {
		slices.Sort(list)
	}
	b.ix.finalizeStats()
	return b.ix
}

func (b *streamBuilder) run(r io.Reader, name string) error {
	dec := xml.NewDecoder(r)
	var stack []*streamFrame
	var path []int32 // Dewey path of the innermost open element
	sawRoot := false

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("index: streaming %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == 0 {
				if sawRoot {
					return fmt.Errorf("index: streaming %s: multiple root elements", name)
				}
				sawRoot = true
				path = append(path, 0)
			} else {
				parent := stack[len(stack)-1]
				path = append(path, parent.elemOrder)
				parent.elemOrder++
				parent.childCount++
			}
			frame := b.openElement(t.Name.Local, path, len(stack))
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				p.labelCount[frame.labelAlias]++
			}
			stack = append(stack, frame.frame)
			// Normalized XML attributes: synthesize leading child elements
			// the way xmltree.Parse does.
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				if err := b.attrChild(stack, &path, a.Name.Local, a.Value); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return fmt.Errorf("index: streaming %s: unbalanced end element", name)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			path = path[:len(path)-1]
			summary := b.closeElement(top)
			if len(stack) > 0 {
				stack[len(stack)-1].children = append(stack[len(stack)-1].children, summary)
			}
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			top := stack[len(stack)-1]
			top.textChunks = append(top.textChunks, text)
			top.childCount++
			top.elemOrder++
			b.ix.Stats.TextNodes++
			for _, tok := range b.norm.Normalize(text) {
				if !top.seenTokens[tok] {
					top.seenTokens[tok] = true
					b.post(tok, top.ord)
				}
			}
		}
	}
	if !sawRoot {
		return fmt.Errorf("index: streaming %s: document has no root element", name)
	}
	if len(stack) != 0 {
		return fmt.Errorf("index: streaming %s: unexpected end of input", name)
	}
	return nil
}

type openedFrame struct {
	frame      *streamFrame
	labelAlias int32
}

// openElement appends the NodeInfo shell and posts the label keyword.
func (b *streamBuilder) openElement(label string, path []int32, depth int) openedFrame {
	ix := b.ix
	ord := int32(len(ix.nodes))
	labelID := b.labelID(label)
	id := dewey.ID{Doc: b.docID, Path: append([]int32(nil), path...)}
	// Parent ordinals are assigned when the parent closes (closeElement);
	// until then every node carries -1, which is also the final value for
	// document roots.
	ix.nodes = append(ix.nodes, NodeInfo{ID: id, Label: labelID, Parent: -1})
	if depth > ix.Stats.MaxDepth {
		ix.Stats.MaxDepth = depth
	}
	// The label keyword is pre-seeded into the frame's token dedup: a text
	// value containing the element's own name (an <author> node whose text
	// says "author") must not post the same ordinal twice — posting lists
	// are strictly increasing by invariant, and the codec enforces it.
	seen := map[string]bool{}
	if b.opts.IndexElementNames {
		if key := b.norm.NormalizeKeyword(label); key != "" {
			b.post(key, ord)
			seen[key] = true
		}
	}
	return openedFrame{
		frame: &streamFrame{
			ord:        ord,
			depth:      depth,
			seenTokens: seen,
			labelCount: map[int32]int{},
		},
		labelAlias: labelID,
	}
}

// attrChild synthesizes the <k>v</k> child for an XML attribute.
func (b *streamBuilder) attrChild(stack []*streamFrame, path *[]int32, name, value string) error {
	parent := stack[len(stack)-1]
	*path = append(*path, parent.elemOrder)
	parent.elemOrder++
	parent.childCount++
	opened := b.openElement(name, *path, len(stack))
	f := opened.frame
	parent.labelCount[opened.labelAlias]++
	// Value text.
	text := strings.TrimSpace(value)
	if text != "" {
		f.textChunks = append(f.textChunks, text)
		f.childCount++
		f.elemOrder++
		b.ix.Stats.TextNodes++
		for _, tok := range b.norm.Normalize(text) {
			if !f.seenTokens[tok] {
				f.seenTokens[tok] = true
				b.post(tok, f.ord)
			}
		}
	}
	summary := b.closeElement(f)
	parent.children = append(parent.children, summary)
	*path = (*path)[:len(*path)-1]
	return nil
}

// closeElement finalizes subtree size, value, child categories and the
// frame's visibility tallies, returning the summary for its parent.
func (b *streamBuilder) closeElement(f *streamFrame) childSummary {
	ix := b.ix
	info := &ix.nodes[f.ord]
	info.Subtree = int32(len(ix.nodes)) - f.ord
	info.ChildCount = f.childCount
	if len(f.textChunks) > 0 {
		info.HasValue = true
		info.Value = strings.Join(f.textChunks, " ")
	}

	// Classify the (now complete) children with full sibling knowledge,
	// and tally their visibility toward this node.
	var attrC, repC, bothC int
	for _, cs := range f.children {
		isRep := f.labelCount[cs.label] > 1
		cat := classify(cs.directValue, isRep, cs.attrC, cs.repC, cs.bothC)
		ix.nodes[cs.ord].Cat = cat
		ix.nodes[cs.ord].Parent = f.ord
		qa, rv := visibility(cat, cs.attrC, cs.repC, cs.bothC)
		switch {
		case qa && rv:
			bothC++
		case qa:
			attrC++
		case rv:
			repC++
		}
	}

	// The root has no parent to classify it; do it here (roots are never
	// repeating).
	if f.depth == 0 {
		directValue := info.Subtree == 1 && info.HasValue && info.ChildCount == 1
		ix.nodes[f.ord].Cat = classify(directValue, false, attrC, repC, bothC)
		ix.nodes[f.ord].Parent = -1
	}

	return childSummary{
		ord:         f.ord,
		label:       ix.nodes[f.ord].Label,
		directValue: info.Subtree == 1 && info.HasValue && info.ChildCount == 1,
		attrC:       attrC,
		repC:        repC,
		bothC:       bothC,
	}
}

// classify applies Defs 2.1.1–2.1.4 given the node's own visibility
// tallies and sibling-repetition status.
func classify(directValue, isRep bool, attrC, repC, bothC int) Category {
	switch {
	case directValue && isRep:
		return Repeating
	case directValue:
		return Attribute
	}
	var cat Category
	if isRep {
		cat |= Repeating
	}
	if entityTest(attrC, repC, bothC) {
		cat |= Entity
	}
	if cat == 0 {
		cat = Connecting
	}
	return cat
}

// visibility mirrors the tree builder's propagation rules.
func visibility(cat Category, attrC, repC, bothC int) (qa, rv bool) {
	switch {
	case cat&Repeating != 0:
		return false, true
	case cat == Attribute:
		return true, false
	default:
		return attrC+bothC > 0, repC+bothC > 0
	}
}

func (b *streamBuilder) labelID(label string) int32 {
	if id, ok := b.ix.labelIDs[label]; ok {
		return id
	}
	id := int32(len(b.ix.Labels))
	b.ix.Labels = append(b.ix.Labels, label)
	b.ix.labelIDs[label] = id
	return id
}

func (b *streamBuilder) post(keyword string, ord int32) {
	b.ix.Postings[keyword] = append(b.ix.Postings[keyword], ord)
}
