package dewey

import (
	"math/rand"
	"sort"
	"testing"
)

func TestParseString(t *testing.T) {
	cases := []struct {
		in   string
		doc  int32
		path []int32
	}{
		{"0.0", 0, []int32{0}},
		{"0.0.1.2", 0, []int32{0, 1, 2}},
		{"3.0.2", 3, []int32{0, 2}},
		{"12.0.10.100.5", 12, []int32{0, 10, 100, 5}},
	}
	for _, c := range cases {
		id, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if id.Doc != c.doc {
			t.Errorf("Parse(%q).Doc = %d, want %d", c.in, id.Doc, c.doc)
		}
		if len(id.Path) != len(c.path) {
			t.Fatalf("Parse(%q).Path = %v, want %v", c.in, id.Path, c.path)
		}
		for i := range c.path {
			if id.Path[i] != c.path[i] {
				t.Errorf("Parse(%q).Path[%d] = %d, want %d", c.in, i, id.Path[i], c.path[i])
			}
		}
		if got := id.String(); got != c.in {
			t.Errorf("String() = %q, want %q", got, c.in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "0", "a.b", "0.-1", "0.1.x", "1.2.3.4.5000000000000"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestCompare(t *testing.T) {
	order := []string{
		"0.0", "0.0.0", "0.0.0.0", "0.0.0.1", "0.0.1", "0.0.1.0", "0.0.2",
		"0.1", "1.0", "1.0.5", "2.0",
	}
	for i := range order {
		for j := range order {
			a, b := MustParse(order[i]), MustParse(order[j])
			got := Compare(a, b)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAncestry(t *testing.T) {
	root := MustParse("0.0")
	mid := MustParse("0.0.1")
	leaf := MustParse("0.0.1.2")
	otherDoc := MustParse("1.0.1.2")

	if !root.IsAncestorOf(leaf) || !root.IsAncestorOf(mid) {
		t.Error("root should be ancestor of descendants")
	}
	if !mid.IsAncestorOf(leaf) {
		t.Error("mid should be ancestor of leaf")
	}
	if leaf.IsAncestorOf(mid) || mid.IsAncestorOf(root) {
		t.Error("descendant must not be ancestor of its ancestor")
	}
	if root.IsAncestorOf(root) {
		t.Error("IsAncestorOf must be strict")
	}
	if !root.IsAncestorOrSelf(root) {
		t.Error("IsAncestorOrSelf must include self")
	}
	if root.IsAncestorOf(otherDoc) {
		t.Error("ancestry must not cross documents")
	}
}

func TestParentChildDepth(t *testing.T) {
	id := MustParse("0.0.3.5")
	if id.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", id.Depth())
	}
	p, ok := id.Parent()
	if !ok || p.String() != "0.0.3" {
		t.Errorf("Parent = %v/%v, want 0.0.3", p, ok)
	}
	if c := id.Child(7); c.String() != "0.0.3.5.7" {
		t.Errorf("Child(7) = %s", c)
	}
	r := Root(2)
	if _, ok := r.Parent(); ok {
		t.Error("root must have no parent")
	}
}

func TestLCA(t *testing.T) {
	a := MustParse("0.0.1.2.3")
	b := MustParse("0.0.1.5")
	lca, ok := LCA(a, b)
	if !ok || lca.String() != "0.0.1" {
		t.Errorf("LCA = %v/%v, want 0.0.1", lca, ok)
	}
	if _, ok := LCA(a, MustParse("1.0")); ok {
		t.Error("LCA across documents must fail")
	}
	self, ok := LCA(a, a)
	if !ok || !Equal(self, a) {
		t.Errorf("LCA(a,a) = %v, want a", self)
	}
	anc, ok := LCA(a, MustParse("0.0.1"))
	if !ok || anc.String() != "0.0.1" {
		t.Errorf("LCA(desc, anc) = %v, want the ancestor", anc)
	}
}

func TestSubtreeEnd(t *testing.T) {
	v := MustParse("0.0.1")
	end := v.SubtreeEnd()
	if end.String() != "0.0.2" {
		t.Errorf("SubtreeEnd = %s, want 0.0.2", end)
	}
	inside := []string{"0.0.1", "0.0.1.0", "0.0.1.99.4"}
	outside := []string{"0.0.0.5", "0.0.2", "0.1", "1.0.1"}
	for _, s := range inside {
		id := MustParse(s)
		if Compare(id, v) < 0 || Compare(id, end) >= 0 {
			t.Errorf("%s should fall inside [%s, %s)", s, v, end)
		}
	}
	for _, s := range outside {
		id := MustParse(s)
		if Compare(id, v) >= 0 && Compare(id, end) < 0 {
			t.Errorf("%s should fall outside [%s, %s)", s, v, end)
		}
	}
}

func TestSubtreeRangeEqualsAncestry(t *testing.T) {
	// Property: u in [v, v.SubtreeEnd()) ⇔ v.IsAncestorOrSelf(u), on random IDs.
	rng := rand.New(rand.NewSource(42))
	randomID := func() ID {
		depth := 1 + rng.Intn(6)
		path := make([]int32, depth)
		for i := range path {
			path[i] = int32(rng.Intn(3))
		}
		path[0] = 0
		return ID{Doc: int32(rng.Intn(2)), Path: path}
	}
	for i := 0; i < 5000; i++ {
		v, u := randomID(), randomID()
		inRange := Compare(u, v) >= 0 && Compare(u, v.SubtreeEnd()) < 0
		if inRange != v.IsAncestorOrSelf(u) {
			t.Fatalf("range/ancestry mismatch: v=%s u=%s inRange=%v ancestor=%v",
				v, u, inRange, v.IsAncestorOrSelf(u))
		}
	}
}

func TestCompareMatchesSortedStrings(t *testing.T) {
	// Document order must equal pre-order; verify against an explicit
	// enumeration of a small tree.
	rng := rand.New(rand.NewSource(7))
	var ids []ID
	var build func(id ID, depth int)
	build = func(id ID, depth int) {
		ids = append(ids, id)
		if depth >= 4 {
			return
		}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			build(id.Child(int32(i)), depth+1)
		}
	}
	build(Root(0), 0)
	build(Root(1), 0)
	shuffled := append([]ID(nil), ids...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sort.Slice(shuffled, func(i, j int) bool { return Compare(shuffled[i], shuffled[j]) < 0 })
	for i := range ids {
		if !Equal(ids[i], shuffled[i]) {
			t.Fatalf("pre-order/document-order mismatch at %d: %s vs %s", i, ids[i], shuffled[i])
		}
	}
}

func TestIsValid(t *testing.T) {
	if (ID{}).IsValid() {
		t.Error("zero ID must be invalid")
	}
	if !MustParse("0.0.1").IsValid() {
		t.Error("parsed ID must be valid")
	}
	if (ID{Doc: -1, Path: []int32{0}}).IsValid() {
		t.Error("negative doc must be invalid")
	}
	if (ID{Doc: 0, Path: []int32{0, -2}}).IsValid() {
		t.Error("negative component must be invalid")
	}
}
