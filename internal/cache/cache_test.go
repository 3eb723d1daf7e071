package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutEvict(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d/%v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestPutRefreshesValue(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Errorf("a = %d, want 9", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestPurgeAndStats(t *testing.T) {
	c := New[int, string](4)
	c.Put(1, "x")
	c.Get(1)
	c.Get(2)
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("len after purge = %d", c.Len())
	}
	if _, ok := c.Get(1); ok {
		t.Error("purged entry still present")
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%100)
				if i%3 == 0 {
					c.Put(key, i)
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("len = %d exceeds capacity", c.Len())
	}
}

// DeleteFunc drops what the predicate selects and nothing else: the
// survivors keep their recency order and the counters do not move.
func TestDeleteFunc(t *testing.T) {
	c := New[string, int](4)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	c.Get("a") // recency, oldest first: b c d a
	hits, misses := c.Stats()

	if n := c.DeleteFunc(func(k string, v int) bool { return k == "c" || v == 0 }); n != 2 {
		t.Fatalf("dropped %d entries, want 2 (a and c)", n)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if h, m := c.Stats(); h != hits || m != misses {
		t.Errorf("stats moved to %d/%d from %d/%d", h, m, hits, misses)
	}
	if n := c.DeleteFunc(func(string, int) bool { return false }); n != 0 || c.Len() != 2 {
		t.Errorf("a false predicate dropped %d entries, len %d", n, c.Len())
	}
	// b is still older than d: two inserts at capacity 4 keep both, a third
	// evicts b first.
	c.Put("e", 5)
	c.Put("f", 6)
	c.Put("g", 7)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived: recency order was lost")
	}
	if _, ok := c.Get("d"); !ok {
		t.Error("d was evicted before b")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("deleted entry still present")
	}
}

// GetIf counts a lookup by what it could serve: an entry that lacks the
// wanted part is a miss, though it is refreshed; Peek counts and refreshes
// nothing.
func TestGetIfAndPeek(t *testing.T) {
	c := New[string, []int](2)
	c.Put("a", []int{1})
	c.Put("b", []int{2})
	has := func(want int) func([]int) bool {
		return func(v []int) bool { return len(v) > 0 && v[0] == want }
	}
	if v, ok := c.GetIf("a", has(1)); !ok || v[0] != 1 {
		t.Fatalf("GetIf(a, has 1) = %v/%v", v, ok)
	}
	if v, ok := c.GetIf("b", has(9)); ok || v != nil {
		t.Fatalf("GetIf(b, has 9) = %v/%v, want a miss", v, ok)
	}
	if _, ok := c.GetIf("z", has(1)); ok {
		t.Fatal("absent key hit")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 1/2", hits, misses)
	}
	// "b" was refreshed by its failed lookup, so "a" is the eviction victim —
	// and Peek must not change that.
	if v, ok := c.Peek("a"); !ok || v[0] != 1 {
		t.Fatalf("Peek(a) = %v/%v", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Fatal("Peek of an absent key")
	}
	c.Put("c", []int{3})
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek refreshed a: it should have been evicted")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Error("a lookup that found b without the wanted part did not refresh it")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("Peek moved the counters: %d/%d", hits, misses)
	}
}
