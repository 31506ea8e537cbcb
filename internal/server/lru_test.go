package server

import (
	"fmt"
	"testing"
)

// Under capacity pressure the cache evicts least-recently-used entries
// and counts each eviction (with residency age), hit and miss.
func TestLRUEvictionUnderPressure(t *testing.T) {
	c := newLRU(2)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprintf("k%d", i), i)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := c.Evictions(); got != 3 {
		t.Fatalf("Evictions = %d, want 3", got)
	}
	if c.EvictedAgeNS() < 0 {
		t.Fatalf("EvictedAgeNS = %d, want >= 0", c.EvictedAgeNS())
	}

	// The survivors are the most recently added; the three oldest went.
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok != (i >= 3) {
			t.Fatalf("k%d cached = %v after evictions, want %v", i, ok, i >= 3)
		}
	}
	if h, m := c.Hits(), c.Misses(); h != 2 || m != 3 {
		t.Fatalf("hits/misses = %d/%d, want 2/3", h, m)
	}
}

// A Get-promoted entry is not the eviction victim.
func TestLRUPromotionChangesVictim(t *testing.T) {
	c := newLRU(2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b, not the freshly-used a
	if _, ok := c.Get("a"); !ok {
		t.Fatal("promoted entry a was evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim b survived")
	}
}
