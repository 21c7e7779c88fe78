package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicHitMiss(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a")    // a is now more recent than b
	c.Add("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%s) = %d, %v", k, v, ok)
		}
	}
}

func TestAddReplaces(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("Get(a) = %d after replace", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
}

func TestNilCacheNeverHits(t *testing.T) {
	var c *Cache[string, int] // also what New(0) returns
	if New[string, int](0) != nil {
		t.Fatal("New(0) should return nil")
	}
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (g*31 + i) % 100
				c.Add(k, k)
				if v, ok := c.Get(k); ok && v != k {
					panic(fmt.Sprintf("Get(%d) = %d", k, v))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

// OnEvict fires once per capacity eviction, in LRU order, and never
// for Add-replacements of a live key.
func TestOnEvict(t *testing.T) {
	c := New[string, int](2)
	var evicted []string
	c.OnEvict(func(k string, v int) { evicted = append(evicted, fmt.Sprintf("%s=%d", k, v)) })
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // replacement: no eviction
	if len(evicted) != 0 {
		t.Fatalf("replacement evicted: %v", evicted)
	}
	c.Add("c", 3) // evicts b (a was touched by replacement)
	c.Add("d", 4) // evicts a
	want := []string{"b=2", "a=10"}
	if fmt.Sprint(evicted) != fmt.Sprint(want) {
		t.Fatalf("evictions = %v, want %v", evicted, want)
	}
	var nilCache *Cache[string, int]
	nilCache.OnEvict(func(string, int) {}) // nil cache: no-op, no panic
}
