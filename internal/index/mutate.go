package index

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/xmltree"
)

// Online mutation: delete and replace without a full rebuild.
//
// The index is immutable once built — that is what makes concurrent
// searches safe — so deletion is copy-on-write: DeleteDoc returns a new
// *Index that shares the node table, postings and label table with its
// predecessor and carries a tombstone mask marking the dead document's
// ordinal range. Search-facing accessors (PostingsFor, Lookup, OrdinalOf,
// LiveSpans) filter against the mask, so a tombstoned index answers
// queries exactly as if the dead documents had never been indexed.
// Tombstones are never persisted: SaveBinary/SaveSnapshot compact first,
// so the mask lives only between a delete and the next save or full pack
// (a delta append carries it forward).

// ErrNotFound reports a mutation against a document name that is not live
// in the index.
var ErrNotFound = errors.New("index: document not found")

// ErrLastDocument reports a delete that would leave the index empty; an
// Index always holds at least one document (Build rejects empty
// repositories), so the caller must rebuild from scratch instead.
var ErrLastDocument = errors.New("index: cannot delete the last live document")

// ErrInvalidDocName reports an upsert whose document name no index can
// hold. Names route deletes, dedupe replacements, key WAL records and
// appear in snapshot manifests and log lines, so an empty or
// control-character name would create a document that is unroutable,
// undeletable, or corrupts a line-oriented format.
var ErrInvalidDocName = errors.New("index: invalid document name")

// ValidateDocName enforces the document-name rules every ingestion layer
// shares: non-blank, at most 512 bytes, no NUL/CR/LF. Every searcher's
// Upsert checks it, so no caller can add a document it cannot address
// again.
func ValidateDocName(name string) error {
	switch {
	case strings.TrimSpace(name) == "":
		return fmt.Errorf("%w: empty name", ErrInvalidDocName)
	case len(name) > 512:
		return fmt.Errorf("%w: %d bytes (max 512)", ErrInvalidDocName, len(name))
	case strings.ContainsAny(name, "\x00\n\r"):
		return fmt.Errorf("%w: name contains control characters", ErrInvalidDocName)
	}
	return nil
}

// tombstones is the per-document delete mask carried by a mutated index.
// All ranges are half-open ordinal intervals, sorted and disjoint.
type tombstones struct {
	// dead holds the coalesced ordinal ranges of deleted documents.
	dead [][2]int32
	// live is the complement of dead within [0, NodeCount()).
	live [][2]int32
	// deadPosts counts dead entries per posting list; only keys with at
	// least one dead entry are present, so the zero lookup keeps the
	// untouched-list fast path allocation-free.
	deadPosts map[string]int32
	// deadDocs is the number of tombstoned documents.
	deadDocs int
}

// LiveSpans returns the sorted, disjoint, half-open ordinal ranges of the
// nodes that are not tombstoned. Iterating these spans visits exactly the
// live node table; without tombstones that is the whole table.
func (ix *Index) LiveSpans() [][2]int32 {
	if ix.tomb == nil {
		if ix.NodeCount() == 0 {
			return nil
		}
		return [][2]int32{{0, int32(ix.NodeCount())}}
	}
	return ix.tomb.live
}

// LiveOrd reports whether the node at ord is live (not tombstoned).
func (ix *Index) LiveOrd(ord int32) bool {
	if ix.tomb == nil {
		return true
	}
	dead := ix.tomb.dead
	i := sort.Search(len(dead), func(i int) bool { return dead[i][1] > ord })
	return i == len(dead) || ord < dead[i][0]
}

// PostingsFor returns the live posting list for a normalized keyword. When
// the list has no tombstoned entries the original slice is returned
// (allocation-free, the common case); otherwise a filtered copy. A fully
// dead list returns nil, indistinguishable from an absent keyword. The
// returned slice must not be modified.
//
// On a lazily-backed index the list is fetched from the posting source; a
// fetch failure poisons the index (it returns nil here, and LazyErr
// reports the failure — the query engine checks it after gathering
// lists, so broken storage fails queries instead of emptying them).
func (ix *Index) PostingsFor(key string) []int32 {
	if ix.lazy != nil {
		list, err := ix.lazy.src.Postings(key)
		if err != nil {
			ix.lazy.poison(err)
			return nil
		}
		return list
	}
	list := ix.Postings[key]
	if ix.tomb == nil {
		return list
	}
	deadCount := ix.tomb.deadPosts[key]
	if deadCount == 0 {
		return list
	}
	if int(deadCount) >= len(list) {
		return nil
	}
	out := make([]int32, 0, len(list)-int(deadCount))
	dead := ix.tomb.dead
	ri := 0
	for _, ord := range list {
		for ri < len(dead) && ord >= dead[ri][1] {
			ri++
		}
		if ri < len(dead) && ord >= dead[ri][0] {
			continue
		}
		out = append(out, ord)
	}
	return out
}

// ForEachKeyword calls f once per keyword with at least one live posting,
// passing the live posting count. Iteration order is unspecified (map
// order), matching a range over Postings on an untombstoned index.
func (ix *Index) ForEachKeyword(f func(keyword string, live int)) {
	if ix.lazy != nil {
		// The term directory is resident in the source, so this performs
		// no I/O and cannot fail — vocabulary walks (Suggest, top
		// keywords) stay cheap on a segment-backed index.
		ix.lazy.src.ForEachTerm(func(term string, count int) error {
			f(term, count)
			return nil
		})
		return
	}
	if ix.tomb == nil {
		for kw, list := range ix.Postings {
			f(kw, len(list))
		}
		return
	}
	for kw, list := range ix.Postings {
		live := len(list) - int(ix.tomb.deadPosts[kw])
		if live > 0 {
			f(kw, live)
		}
	}
}

// DocSpan describes one live document's slice of the node table.
type DocSpan struct {
	// Name is the document's repository name.
	Name string
	// Doc is the Dewey document number (sparse after deletes).
	Doc int32
	// Start and End bound the document's half-open ordinal range.
	Start, End int32
}

// LiveDocSpans returns the live documents in node-table (Dewey) order.
// The k-th root node of the table corresponds to DocNames[k], dead or
// alive; tombstoned documents are skipped.
func (ix *Index) LiveDocSpans() []DocSpan {
	out := make([]DocSpan, 0, ix.LiveDocCount())
	k := 0
	for ord, n := int32(0), int32(ix.NodeCount()); ord < n && k < len(ix.DocNames); k++ {
		size := ix.SubtreeSizeOf(ord)
		if size <= 0 {
			break // corrupt table; Validate reports this properly
		}
		if ix.LiveOrd(ord) {
			out = append(out, DocSpan{
				Name:  ix.DocNames[k],
				Doc:   ix.DocOf(ord),
				Start: ord,
				End:   ord + size,
			})
		}
		ord += size
	}
	return out
}

// LiveDocCount returns the number of live documents.
func (ix *Index) LiveDocCount() int {
	if ix.tomb == nil {
		return len(ix.DocNames)
	}
	return len(ix.DocNames) - ix.tomb.deadDocs
}

// LiveDocs returns the live document names in node-table order.
func (ix *Index) LiveDocs() []string {
	spans := ix.LiveDocSpans()
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// ContainsDoc reports whether a live document with the given name exists.
func (ix *Index) ContainsDoc(name string) bool {
	for _, sp := range ix.LiveDocSpans() {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// DocHolds resolves the ordinal span(s) of the live document(s) named name
// once and returns a probe reporting whether a normalized keyword has a
// posting inside one of them: one binary search per span. Spans of live
// documents hold no tombstoned ordinal, so the probe reads the unfiltered
// list. A name that is not live yields a probe that is always false. On a
// lazily-backed index a fetch that fails poisons the index, as PostingsFor
// does, and the probe answers true — a caller dropping what the document
// may hold must not keep what it could not check.
func (ix *Index) DocHolds(name string) func(token string) bool {
	var spans [][2]int32
	for _, sp := range ix.LiveDocSpans() {
		if sp.Name == name {
			spans = append(spans, [2]int32{sp.Start, sp.End})
		}
	}
	return func(token string) bool {
		if len(spans) == 0 {
			return false
		}
		list := ix.Postings[token]
		if ix.lazy != nil {
			var err error
			if list, err = ix.lazy.src.Postings(token); err != nil {
				ix.lazy.poison(err)
				return true
			}
		}
		for _, sp := range spans {
			i := sort.Search(len(list), func(i int) bool { return list[i] >= sp[0] })
			if i < len(list) && list[i] < sp[1] {
				return true
			}
		}
		return false
	}
}

// NextDocID returns the Dewey document number the next appended document
// should take: one past the highest live document number. Appending at
// the maximum keeps the node table Dewey-sorted even when earlier deletes
// left holes in the numbering, which is what lets AppendAs remain a cheap
// suffix merge.
func (ix *Index) NextDocID() int32 {
	max := int32(-1)
	for _, sp := range ix.LiveDocSpans() {
		if sp.Doc > max {
			max = sp.Doc
		}
	}
	return max + 1
}

// DeleteDoc removes the live document(s) named name and returns a new
// tombstoned index; ix itself is unchanged and keeps serving. The new
// index shares the node table, postings, labels and document names with
// ix — only the tombstone mask and the statistics are fresh. It fails
// with ErrNotFound when no live document has the name and with
// ErrLastDocument when the delete would empty the index.
func (ix *Index) DeleteDoc(name string) (*Index, error) {
	if ix.lazy != nil {
		// Tombstoning needs the Postings map; mutation of a segment-backed
		// index goes through an eager copy (the caller persists the result
		// as a fresh snapshot or segment anyway).
		m, err := ix.Materialized()
		if err != nil {
			return nil, err
		}
		ix = m
	}
	spans := ix.LiveDocSpans()
	var doomed [][2]int32
	for _, sp := range spans {
		if sp.Name == name {
			doomed = append(doomed, [2]int32{sp.Start, sp.End})
		}
	}
	if len(doomed) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if len(doomed) == len(spans) {
		return nil, fmt.Errorf("%w: %q", ErrLastDocument, name)
	}

	tomb := &tombstones{deadDocs: len(doomed), deadPosts: map[string]int32{}}
	merged := slices.Clone(doomed)
	if ix.tomb != nil {
		tomb.deadDocs += ix.tomb.deadDocs
		merged = append(merged, ix.tomb.dead...)
		// The predecessor's counts carry over; its map is shared with its
		// appends, so it is copied, never written through.
		tomb.deadPosts = maps.Clone(ix.tomb.deadPosts)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i][0] < merged[j][0] })
	// Coalesce adjacent ranges; document ranges never overlap, so touching
	// ends are the only merge case.
	for _, r := range merged {
		if n := len(tomb.dead); n > 0 && tomb.dead[n-1][1] == r[0] {
			tomb.dead[n-1][1] = r[1]
			continue
		}
		tomb.dead = append(tomb.dead, r)
	}

	// Live complement.
	cur := int32(0)
	for _, r := range tomb.dead {
		if r[0] > cur {
			tomb.live = append(tomb.live, [2]int32{cur, r[0]})
		}
		cur = r[1]
	}
	if n := int32(ix.NodeCount()); cur < n {
		tomb.live = append(tomb.live, [2]int32{cur, n})
	}

	// The live statistics lose exactly what the doomed ranges held: their
	// node tallies and, per keyword, the postings inside them (two binary
	// searches per list and range; doomed spans are live, so none of these
	// postings was counted dead before).
	st := ix.Stats
	var gone Stats
	for _, r := range doomed {
		ix.tallySpan(&gone, r)
	}
	st.addNodes(gone, -1)
	for kw, list := range ix.Postings {
		n := postingsIn(list, doomed)
		if n == 0 {
			continue
		}
		dead := tomb.deadPosts[kw] + n
		tomb.deadPosts[kw] = dead
		st.PostingEntries -= int(n)
		if int(dead) == len(list) {
			st.DistinctKeywords--
		}
	}

	out := &Index{
		Labels:   ix.Labels,
		Postings: ix.Postings,
		DocNames: ix.DocNames,
		Stats:    st,
		labelIDs: ix.labelIDs,
		tomb:     tomb,
		packed:   ix.packed,
	}
	if gone.MaxDepth == st.MaxDepth {
		// A doomed document reached the deepest level; what survives may
		// not, so find the live maximum again.
		out.Stats.MaxDepth = out.liveMaxDepth(st.MaxDepth)
	}
	return out, nil
}

// postingsIn counts the entries of the sorted list that fall inside the
// sorted, disjoint half-open ranges.
func postingsIn(list []int32, ranges [][2]int32) int32 {
	if len(list) == 0 || list[len(list)-1] < ranges[0][0] || list[0] >= ranges[len(ranges)-1][1] {
		return 0
	}
	n := 0
	for _, r := range ranges {
		lo, _ := slices.BinarySearch(list, r[0])
		hi, _ := slices.BinarySearch(list[lo:], r[1])
		n += hi
	}
	return int32(n)
}

// liveMaxDepth returns the greatest depth of a live node. No live node is
// deeper than bound, so the scan stops at the first node that reaches it.
func (ix *Index) liveMaxDepth(bound int) int {
	deepest := 0
	for _, sp := range ix.LiveSpans() {
		for ord := sp[0]; ord < sp[1]; ord++ {
			d := int(ix.DepthOf(ord))
			if d >= bound {
				return d
			}
			deepest = max(deepest, d)
		}
	}
	return deepest
}

// tallySpan adds the node statistics of the ordinal span sp — documents,
// element and text nodes, categories and the maximum depth — to st. The
// span must align to document boundaries.
func (ix *Index) tallySpan(st *Stats, sp [2]int32) {
	var childSum, roots int32
	for ord := sp[0]; ord < sp[1]; ord++ {
		st.ElementNodes++
		childSum += ix.ChildCountOf(ord)
		if ix.ParentOf(ord) < 0 {
			roots++
		}
		if d := int(ix.DepthOf(ord)); d > st.MaxDepth {
			st.MaxDepth = d
		}
		st.addCategory(ix.CatOf(ord))
	}
	// ChildCount counts element and text children alike; every element in
	// the span except its document roots is somebody's child, so the
	// remainder is the span's text-node count (spans align to document
	// boundaries, so no parent/child edge crosses a span edge).
	st.TextNodes += int(childSum - (sp[1] - sp[0] - roots))
	st.Documents += int(roots)
}

// Compacted returns an index with the tombstoned documents physically
// removed: live nodes are packed contiguously (ordinals shift down, Dewey
// IDs — including sparse document numbers — are preserved), posting lists
// are filtered and re-based, and dead document names are dropped. Without
// tombstones it returns ix itself. The result is a plain immutable index
// whose node table and postings equal a cold rebuild's from the surviving
// documents — packing is deterministic — and only the label table may
// retain interned labels that no surviving document uses.
func (ix *Index) Compacted() *Index {
	if ix.tomb == nil {
		return ix
	}
	return ix.flat().pack()
}

// flat expands the live documents of ix into the builders' flat form:
// surviving rows re-based onto contiguous ordinals, postings filtered and
// re-based, dead document names dropped. Without tombstones that is every
// row, and the postings and names are shared. Compaction, the full pack
// an append falls back to and a repack pack this.
func (ix *Index) flat() *Index {
	out := &Index{
		Labels:   ix.Labels,
		labelIDs: ix.labelIDs,
		Postings: ix.Postings,
		DocNames: ix.DocNames,
		Stats:    ix.Stats,
		nodes:    make([]NodeInfo, 0, ix.NodeCount()),
	}
	for _, sp := range ix.LiveSpans() {
		// Nodes before this span shifted down by the dead mass before it.
		shift := sp[0] - int32(len(out.nodes))
		for ord := sp[0]; ord < sp[1]; ord++ {
			n := ix.packed.nodeInfo(ord)
			if n.Parent >= 0 {
				// A non-root's parent is in the same document, hence the
				// same live span and the same shift.
				n.Parent -= shift
			}
			out.nodes = append(out.nodes, n)
		}
	}
	if ix.tomb == nil {
		return out
	}

	out.Postings = make(map[string][]int32, len(ix.Postings))
	dead := ix.tomb.dead
	for kw, list := range ix.Postings {
		live := len(list) - int(ix.tomb.deadPosts[kw])
		if live <= 0 {
			continue
		}
		dst := make([]int32, 0, live)
		ri := 0
		shift := int32(0)
		for _, ord := range list {
			for ri < len(dead) && ord >= dead[ri][1] {
				shift += dead[ri][1] - dead[ri][0]
				ri++
			}
			if ri < len(dead) && ord >= dead[ri][0] {
				continue
			}
			dst = append(dst, ord-shift)
		}
		out.Postings[kw] = dst
	}

	out.DocNames = make([]string, 0, ix.LiveDocCount())
	for _, sp := range ix.LiveDocSpans() {
		out.DocNames = append(out.DocNames, sp.Name)
	}
	return out
}

// BuildDocumentAs indexes a single document under an explicit Dewey
// document number. It validates everything that can fail before touching
// the caller's tree, and restores the document's prior numbering if the
// build fails anyway — a failed build must leave the caller's document
// usable for a retry elsewhere.
func BuildDocumentAs(doc *xmltree.Document, docID int32, opts Options) (*Index, error) {
	return packing(buildDocumentAs(doc, docID, opts))
}

// buildDocumentAs is BuildDocumentAs without the final pack: the flat
// one-document table AppendAs delta-appends.
func buildDocumentAs(doc *xmltree.Document, docID int32, opts Options) (*Index, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("index: build of empty document")
	}
	if !doc.Root.IsElement() {
		return nil, fmt.Errorf("index: document %q root is not an element", doc.Name)
	}
	if docID < 0 {
		return nil, fmt.Errorf("index: document %q: negative document id %d", doc.Name, docID)
	}
	oldID := doc.DocID
	renumber(doc, docID)
	ix, err := buildFlat(&xmltree.Repository{Docs: []*xmltree.Document{doc}}, opts)
	if err != nil {
		renumber(doc, oldID)
		return nil, err
	}
	return ix, nil
}

// renumber gives doc the Dewey document number docID, all its nodes with it.
func renumber(doc *xmltree.Document, docID int32) {
	doc.DocID = docID
	doc.AssignIDs()
}
