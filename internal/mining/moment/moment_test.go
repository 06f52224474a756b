package moment

import (
	"testing"

	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/paperex"
	"repro/internal/rng"
)

// checkInvariants verifies the structural invariants of the enumeration
// tree against the materialized window: exact supports, frequent flags and
// bitmaps, border nodes as leaves, children sorted by item without
// duplicates, and no level-1 node left at zero support (an item that
// leaves the window must leave the item table).
func checkInvariants(t *testing.T, m *Miner) {
	t.Helper()
	db := m.Database()
	var walk func(n *node)
	walk = func(n *node) {
		for i, e := range n.children {
			c := e.node
			if i > 0 && e.item <= n.children[i-1].item {
				t.Fatalf("children of %v not strictly sorted: %v after %v",
					n.set, c.set, n.children[i-1].node.set)
			}
			if c.parent != n || c.last != e.item || e.item != c.set.At(c.set.Len()-1) {
				t.Fatalf("node %v misplaced under %v", c.set, n.set)
			}
			if n == m.root && c.support == 0 {
				t.Fatalf("level-1 node %v tracked at zero support", c.set)
			}
			truth := db.Support(c.set)
			if c.support != truth {
				t.Fatalf("node %v support %d, window says %d", c.set, c.support, truth)
			}
			if c.frequent != (c.support >= m.minSupport) {
				t.Fatalf("node %v frequent flag %v at support %d (C=%d)",
					c.set, c.frequent, c.support, m.minSupport)
			}
			if c.frequent && c.bm == nil {
				t.Fatalf("frequent node %v lost its bitmap", c.set)
			}
			if c.bm != nil && c.bm.Count() != c.support {
				t.Fatalf("node %v bitmap count %d != support %d", c.set, c.bm.Count(), c.support)
			}
			if !c.frequent && len(c.children) > 0 {
				t.Fatalf("border node %v has children", c.set)
			}
			walk(c)
		}
	}
	walk(m.root)
}

func sameResult(t *testing.T, got, want *mining.Result, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d itemsets, want %d", label, got.Len(), want.Len())
	}
	for _, fi := range want.Itemsets {
		sup, ok := got.Support(fi.Set)
		if !ok || sup != fi.Support {
			t.Fatalf("%s: T(%v) = %d,%v, want %d", label, fi.Set, sup, ok, fi.Support)
		}
	}
}

func randomRecord(src *rng.Source, universe, maxLen int) itemset.Itemset {
	n := 1 + src.Intn(maxLen)
	items := make([]itemset.Item, 0, n)
	for j := 0; j < n; j++ {
		items = append(items, itemset.Item(src.Intn(universe)))
	}
	return itemset.New(items...)
}

func TestMinerMatchesEclatEverySlide(t *testing.T) {
	src := rng.New(42)
	m := New(20, 4)
	for i := 0; i < 200; i++ {
		m.Push(randomRecord(src, 10, 6))
		want, err := mining.Eclat(m.Database(), 4)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, m.Frequent(), want, "slide")
		checkInvariants(t, m)
	}
}

func TestMinerMatchesEclatVariedParams(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 8; trial++ {
		h := 5 + src.Intn(30)
		c := 1 + src.Intn(6)
		universe := 4 + src.Intn(10)
		m := New(h, c)
		for i := 0; i < 3*h; i++ {
			m.Push(randomRecord(src, universe, 5))
		}
		want, err := mining.Eclat(m.Database(), c)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, m.Frequent(), want, "varied")
		checkInvariants(t, m)
	}
}

func TestMinerClosedMatchesEclatClosed(t *testing.T) {
	src := rng.New(99)
	m := New(25, 3)
	for i := 0; i < 120; i++ {
		m.Push(randomRecord(src, 8, 5))
	}
	want, err := mining.Eclat(m.Database(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, m.Closed(), want.Closed(), "closed")
}

func TestMinerOnPaperExample(t *testing.T) {
	m := New(paperex.WindowSize, 4)
	for _, rec := range paperex.Records() {
		m.Push(rec)
	}
	// Window is now Ds(12,8); Fig. 3 supports with C=4.
	res := m.Frequent()
	for _, tc := range []struct {
		set  itemset.Itemset
		want int
	}{
		{itemset.New(paperex.C), 8},
		{itemset.New(paperex.A, paperex.C), 5},
		{itemset.New(paperex.B, paperex.C), 5},
	} {
		sup, ok := res.Support(tc.set)
		if !ok || sup != tc.want {
			t.Errorf("T(%v) = %d,%v want %d", tc.set, sup, ok, tc.want)
		}
	}
	if _, ok := res.Support(itemset.New(paperex.A, paperex.B, paperex.C)); ok {
		t.Error("abc has support 3 < C=4, must not be frequent")
	}
	checkInvariants(t, m)
}

func TestMinerWarmupBeforeFull(t *testing.T) {
	m := New(10, 2)
	m.Push(itemset.New(1, 2))
	m.Push(itemset.New(1, 2))
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	res := m.Frequent()
	if sup, ok := res.Support(itemset.New(1, 2)); !ok || sup != 2 {
		t.Errorf("T({1,2}) = %d,%v", sup, ok)
	}
	checkInvariants(t, m)
}

func TestMinerEvictionToEmptyItem(t *testing.T) {
	// An item that appears once and then slides out must vanish from the
	// tree entirely.
	m := New(2, 1)
	m.Push(itemset.New(7))
	m.Push(itemset.New(1))
	m.Push(itemset.New(1)) // evicts {7}
	if m.root.child(7) != nil {
		t.Error("item 7 still tracked after leaving the window")
	}
	res := m.Frequent()
	if _, ok := res.Support(itemset.New(7)); ok {
		t.Error("item 7 still reported frequent")
	}
	checkInvariants(t, m)
}

func TestMinerDuplicateRecords(t *testing.T) {
	m := New(4, 3)
	for i := 0; i < 10; i++ {
		m.Push(itemset.New(1, 2, 3))
	}
	res := m.Frequent()
	if sup, ok := res.Support(itemset.New(1, 2, 3)); !ok || sup != 4 {
		t.Errorf("T({1,2,3}) = %d,%v, want 4", sup, ok)
	}
	// All 7 subsets frequent.
	if res.Len() != 7 {
		t.Errorf("frequent count = %d, want 7", res.Len())
	}
	checkInvariants(t, m)
}

func TestMinerOscillation(t *testing.T) {
	// Drive an itemset repeatedly across the threshold to exercise
	// promotion/demotion cycling.
	m := New(4, 3)
	on := itemset.New(1, 2)
	off := itemset.New(9)
	src := rng.New(5)
	for i := 0; i < 300; i++ {
		if src.Intn(2) == 0 {
			m.Push(on)
		} else {
			m.Push(off)
		}
		want, err := mining.Eclat(m.Database(), 3)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, m.Frequent(), want, "oscillation")
		checkInvariants(t, m)
	}
}

func TestMinerWindowAccessors(t *testing.T) {
	m := New(3, 1)
	if m.Capacity() != 3 || m.MinSupport() != 1 {
		t.Error("accessors wrong")
	}
	for i := 1; i <= 5; i++ {
		m.Push(itemset.New(itemset.Item(i)))
	}
	if m.Position() != 5 {
		t.Errorf("Position = %d", m.Position())
	}
	w := m.Window()
	if len(w) != 3 || !w[0].Equal(itemset.New(3)) || !w[2].Equal(itemset.New(5)) {
		t.Errorf("Window = %v", w)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1) },
		func() { New(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad New args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMinerEmptyRecord(t *testing.T) {
	m := New(3, 1)
	m.Push(itemset.New())
	m.Push(itemset.New(1))
	res := m.Frequent()
	if sup, ok := res.Support(itemset.New(1)); !ok || sup != 1 {
		t.Errorf("T({1}) = %d,%v", sup, ok)
	}
	checkInvariants(t, m)
}

func TestMinerLongStreamStability(t *testing.T) {
	// Node count must stay bounded on a long stream with churn: the tree
	// cannot accumulate dead items or orphan subtrees.
	src := rng.New(31)
	m := New(30, 5)
	var maxNodes int
	for i := 0; i < 2000; i++ {
		m.Push(randomRecord(src, 15, 5))
		if n := m.nodeCount(); n > maxNodes {
			maxNodes = n
		}
		checkInvariants(t, m)
	}
	final := m.nodeCount()
	if final == 0 {
		t.Fatal("tree empty after long stream")
	}
	// With 15 items the tracked set can never legitimately exceed a few
	// hundred nodes; a leak shows up as monotone growth far beyond this.
	if maxNodes > 4000 {
		t.Errorf("tracked nodes peaked at %d — leak suspected", maxNodes)
	}
	checkInvariants(t, m)
}

func BenchmarkMinerPush(b *testing.B) {
	src := rng.New(11)
	recs := make([]itemset.Itemset, 4096)
	for i := range recs {
		recs[i] = randomRecord(src, 50, 8)
	}
	m := New(2000, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Push(recs[i%len(recs)])
	}
}

func BenchmarkMinerFrequentSnapshot(b *testing.B) {
	src := rng.New(11)
	m := New(2000, 25)
	for i := 0; i < 3000; i++ {
		m.Push(randomRecord(src, 50, 8))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Frequent()
	}
}

// Property: for arbitrary (H, C, universe) and long random streams, the
// incremental miner's closed sets equal Apriori's closed sets on the
// materialized window.
func TestMinerClosedPropertyAcrossParams(t *testing.T) {
	src := rng.New(1234)
	for trial := 0; trial < 5; trial++ {
		h := 10 + src.Intn(25)
		c := 2 + src.Intn(4)
		uni := 5 + src.Intn(8)
		m := New(h, c)
		for i := 0; i < 4*h; i++ {
			m.Push(randomRecord(src, uni, 6))
		}
		want, err := mining.Apriori(m.Database(), c)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, m.Closed(), want.Closed(), "closed property")
	}
}

// A window full of identical maximal records then a hard switch to a
// disjoint alphabet: the tree must fully turn over without leaks.
func TestMinerAlphabetTurnover(t *testing.T) {
	m := New(8, 3)
	for i := 0; i < 8; i++ {
		m.Push(itemset.New(0, 1, 2))
		checkInvariants(t, m)
	}
	before := m.nodeCount()
	for i := 0; i < 8; i++ {
		m.Push(itemset.New(10, 11))
		checkInvariants(t, m)
	}
	res := m.Frequent()
	if _, ok := res.Support(itemset.New(0)); ok {
		t.Error("old alphabet still frequent after turnover")
	}
	if sup, ok := res.Support(itemset.New(10, 11)); !ok || sup != 8 {
		t.Errorf("new alphabet support = %d,%v", sup, ok)
	}
	if m.root.child(0) != nil {
		t.Error("stale level-1 node survived")
	}
	after := m.nodeCount()
	if after > before {
		t.Errorf("node count grew across turnover: %d -> %d", before, after)
	}
	checkInvariants(t, m)
}

// Window of size 1: every push fully replaces the content.
func TestMinerWindowOfOne(t *testing.T) {
	m := New(1, 1)
	m.Push(itemset.New(1, 2))
	m.Push(itemset.New(3))
	res := m.Frequent()
	if res.Len() != 1 {
		t.Fatalf("window-of-one holds %d itemsets, want 1", res.Len())
	}
	if sup, ok := res.Support(itemset.New(3)); !ok || sup != 1 {
		t.Errorf("T({3}) = %d,%v", sup, ok)
	}
	checkInvariants(t, m)
}
