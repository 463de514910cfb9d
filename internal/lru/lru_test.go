package lru

import "testing"

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int](2)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	if _, ok := c.Get("a"); !ok { // promote a; b is now oldest
		t.Fatal("a missing before eviction")
	}
	c.Add("c", 3, 1)
	if c.Contains("b") {
		t.Fatal("b survived eviction, want least-recent evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d/%v after eviction, want 1", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("c = %d/%v, want 3", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestReAddKeepsExistingValueAndPromotes(t *testing.T) {
	c := New[string](2)
	c.Add("k", "original", 1)
	c.Add("x", "other", 1)
	c.Add("k", "ignored", 1) // promote, don't overwrite
	c.Add("y", "newest", 1)  // evicts x, not the promoted k
	if v, ok := c.Get("k"); !ok || v != "original" {
		t.Fatalf("k = %q/%v, want the original value kept", v, ok)
	}
	if c.Contains("x") {
		t.Fatal("x survived, want it evicted as least-recent")
	}
}

func TestRemoveAndMiss(t *testing.T) {
	c := New[int](4)
	c.Add("a", 1, 3)
	c.Remove("a")
	c.Remove("never-there") // no-op
	if _, ok := c.Get("a"); ok {
		t.Fatal("removed key still present")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after remove, want 0", c.Len())
	}
	c.Add("b", 2, 4) // a's weight went with it
	if !c.Contains("b") {
		t.Fatal("a removed entry's weight still counts against the budget")
	}
}

// TestEvictsByWeight: one heavy entry pushes out as many of the least
// recently used entries as its weight needs, and no more.
func TestEvictsByWeight(t *testing.T) {
	c := New[int](10)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Add(k, i, 2)
	}
	c.Get("a") // order, oldest first: b c d a
	c.Add("heavy", 9, 5)
	for _, k := range []string{"b", "c"} {
		if c.Contains(k) {
			t.Fatalf("%s survived, want the two least recent evicted", k)
		}
	}
	for _, k := range []string{"d", "a", "heavy"} {
		if !c.Contains(k) {
			t.Fatalf("%s evicted, want it kept", k)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestOverBudgetEntryIsNotAdded: a value heavier than the whole budget
// is refused and evicts nothing; one that fills the budget exactly is
// kept alone.
func TestOverBudgetEntryIsNotAdded(t *testing.T) {
	c := New[int](4)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	c.Add("huge", 3, 5)
	if c.Contains("huge") || !c.Contains("a") || !c.Contains("b") || c.Len() != 2 {
		t.Fatalf("after an over-budget Add: huge %v, a %v, b %v; want only a and b",
			c.Contains("huge"), c.Contains("a"), c.Contains("b"))
	}
	c.Add("full", 4, 4)
	if !c.Contains("full") || c.Len() != 1 {
		t.Fatalf("after a budget-sized Add: Len %d; want it alone", c.Len())
	}
}
