package postings

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := [][]int32{
		nil,
		{0},
		{0, 1, 2, 3},
		{5, 100, 101, 1 << 20},
		{2147480000, 2147480001},
	}
	for _, list := range cases {
		buf := Encode(nil, list)
		got, n, err := Decode(buf, len(list))
		if err != nil {
			t.Fatalf("Decode(%v): %v", list, err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d bytes", n, len(buf))
		}
		if len(list) == 0 {
			if len(got) != 0 {
				t.Errorf("Decode = %v, want empty", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, list) {
			t.Errorf("round trip %v -> %v", list, got)
		}
	}
}

func TestEncodePanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode must panic on non-increasing input")
		}
	}()
	Encode(nil, []int32{3, 3})
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil, 1); err == nil {
		t.Error("truncated input must fail")
	}
	buf := Encode(nil, []int32{1, 2})
	if _, _, err := Decode(buf[:1], 2); err == nil {
		t.Error("short buffer must fail")
	}
}

// TestIntersectUnion checks the phrase intersection on fixed lists; Union,
// once tested beside it, had no caller and is gone.
func TestIntersectUnion(t *testing.T) {
	a := []int32{1, 3, 5, 7, 9}
	b := []int32{3, 4, 5, 10}
	if got := Intersect(a, b); !reflect.DeepEqual(got, []int32{3, 5}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := Intersect(a, nil); got != nil {
		t.Errorf("Intersect with empty = %v", got)
	}
}

// TestIntersectUnionProperties holds Intersect against a membership filter
// on random sorted lists.
func TestIntersectUnionProperties(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a, b := sortedUnique(ra), sortedUnique(rb)
		var want []int32
		for _, v := range a {
			if contains(b, v) {
				want = append(want, v)
			}
		}
		return reflect.DeepEqual(Intersect(a, b), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatio(t *testing.T) {
	// Dense lists (small deltas) must compress to near 1 byte/entry,
	// versus 4 bytes raw.
	rng := rand.New(rand.NewSource(1))
	list := make([]int32, 10000)
	cur := int32(0)
	for i := range list {
		cur += int32(1 + rng.Intn(3))
		list[i] = cur
	}
	buf := Encode(nil, list)
	if perEntry := float64(len(buf)) / float64(len(list)); perEntry > 1.1 {
		t.Errorf("dense list uses %.2f bytes/entry, want ~1", perEntry)
	}
}

func sortedUnique(raw []uint16) []int32 {
	m := map[int32]bool{}
	for _, r := range raw {
		m[int32(r)] = true
	}
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func contains(l []int32, v int32) bool {
	for _, x := range l {
		if x == v {
			return true
		}
	}
	return false
}
