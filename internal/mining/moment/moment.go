// Package moment implements a Moment-style incremental frequent-itemset
// miner over a sliding window, the substrate the Butterfly prototype was
// built on (Chi et al., "Moment: Maintaining closed frequent itemsets over a
// stream sliding window", ICDM 2004).
//
// Like Moment, the miner keeps an in-memory enumeration tree over the items
// and updates it in time proportional to the change when the window slides,
// rather than re-mining each window. The node taxonomy differs from the
// original CET in one simplification that does not change the output: where
// Moment distinguishes unpromising-gateway and intermediate nodes to keep
// only closed itemsets materialized, this tree tracks every frequent itemset
// plus a candidate border (the lexicographic extensions of frequent nodes
// justified by frequent siblings — exactly the Apriori-gen candidates), and
// derives the closed subset on demand. Supports of frequent nodes are backed
// by vertical bitmaps over window slots so that border expansion after a
// promotion is a bitmap AND instead of a window rescan; border nodes carry
// only a counter, keeping memory proportional to the frequent set.
//
// The tree maintains two invariants after every slide:
//
//  1. every itemset frequent in the current window is present as a tree
//     path and marked frequent with its exact support, and
//  2. every tracked infrequent node is a leaf (the border).
//
// Invariant 1 holds inductively: supports are antitone under inclusion, so
// a newly frequent itemset P+i has frequent P and a frequent sibling
// parent(P)+i, and the promotion of whichever of the two crossed the
// threshold last created the candidate node for P+i.
//
// Each node keeps its children in a slice sorted by item. A slide
// merge-walks each visited node's children against the record's sorted
// items, skipping long runs of children (the item table at the root) by
// binary search, and only the evicted record's items are checked for
// leaving the item table. So a slide costs time proportional to the
// record and the nodes it touches, as in Moment, not to the size of the
// item table; and the snapshot walk reads contiguous slices instead of
// iterating maps.
package moment

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// Miner incrementally maintains the frequent itemsets of the H most recent
// records. It is not safe for concurrent use.
type Miner struct {
	minSupport int
	capacity   int

	buf    []itemset.Itemset // window ring buffer
	head   int
	length int
	pos    int // total records pushed

	root *node
}

// node is one tracked itemset. Level-1 nodes (single items) always carry a
// bitmap — they are the basis every deeper bitmap is rebuilt from. Deeper
// nodes carry a bitmap only while frequent; border nodes maintain just the
// support counter via the add/remove walks.
type node struct {
	set      itemset.Itemset
	last     itemset.Item // last item of set (undefined at root)
	bm       *bitset.Bitset
	support  int
	frequent bool
	parent   *node
	children []edge // sorted by item, no duplicates
}

// edge is one child link. The child's last item is kept beside the pointer
// so that searching a node's children reads one contiguous slice.
type edge struct {
	item itemset.Item
	node *node
}

func (n *node) level1() bool { return n.set.Len() == 1 }

// search returns the position of item it among sorted children and whether
// a child for it is there.
func search(kids []edge, it itemset.Item) (int, bool) {
	lo, hi := 0, len(kids)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if kids[h].item < it {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(kids) && kids[lo].item == it
}

// child returns n's child for item it, or nil.
func (n *node) child(it itemset.Item) *node {
	if i, ok := search(n.children, it); ok {
		return n.children[i].node
	}
	return nil
}

// visit calls fn for each child of n whose item is in items (sorted
// ascending), in item order, passing the items after the child's. It
// merge-walks the two sorted lists; a long run of children between two
// items (the item table at the root) is skipped by binary search.
func (n *node) visit(items []itemset.Item, fn func(c *node, rest []itemset.Item)) {
	const run = 8
	kids := n.children
	for idx, it := range items {
		i := 0
		for i < len(kids) && i < run && kids[i].item < it {
			i++
		}
		if i == run {
			j, _ := search(kids[run:], it)
			i += j
		}
		kids = kids[i:]
		if len(kids) == 0 {
			return
		}
		if kids[0].item == it {
			fn(kids[0].node, items[idx+1:])
			kids = kids[1:]
		}
	}
}

// New creates a Miner over a sliding window of the given capacity with the
// given minimum support C. It panics on non-positive arguments, matching the
// construction-time contract of stream.NewWindow.
func New(capacity, minSupport int) *Miner {
	if capacity <= 0 {
		panic(fmt.Sprintf("moment: window capacity %d must be positive", capacity))
	}
	if minSupport <= 0 {
		panic(fmt.Sprintf("moment: minimum support %d must be positive", minSupport))
	}
	m := &Miner{
		minSupport: minSupport,
		capacity:   capacity,
		buf:        make([]itemset.Itemset, capacity),
	}
	m.root = &node{frequent: true}
	return m
}

// MinSupport returns the mining threshold C.
func (m *Miner) MinSupport() int { return m.minSupport }

// Capacity returns the window size H.
func (m *Miner) Capacity() int { return m.capacity }

// Len returns the number of records currently in the window.
func (m *Miner) Len() int { return m.length }

// Position returns N, the total number of records pushed.
func (m *Miner) Position() int { return m.pos }

// Push slides the window by one record, evicting the oldest record first
// when the window is full, and updates the enumeration tree.
func (m *Miner) Push(rec itemset.Itemset) {
	m.pos++
	var slot int
	if m.length < m.capacity {
		slot = (m.head + m.length) % m.capacity
		m.length++
	} else {
		slot = m.head
		m.remove(m.buf[slot], slot)
		m.head = (m.head + 1) % m.capacity
	}
	m.buf[slot] = rec
	m.add(rec, slot)
}

// Window returns the current window content in stream order (oldest first).
func (m *Miner) Window() []itemset.Itemset {
	out := make([]itemset.Itemset, m.length)
	for i := 0; i < m.length; i++ {
		out[i] = m.buf[(m.head+i)%m.capacity]
	}
	return out
}

// Database materializes the current window as a Database snapshot.
func (m *Miner) Database() *itemset.Database {
	return itemset.NewDatabase(m.Window())
}

// Frequent returns the frequent itemsets of the current window.
func (m *Miner) Frequent() *mining.Result {
	return m.FrequentInto(nil)
}

// FrequentInto is Frequent recycling the storage of a previous window's
// result: recycled's itemset buffer is truncated and refilled in place, so
// a steady-state snapshot costs no allocation beyond occasional buffer
// growth. A nil recycled allocates fresh. The caller must be done with
// recycled's previous contents — the pipeline recycles a window's result
// only after its sanitized output has been assembled.
func (m *Miner) FrequentInto(recycled *mining.Result) *mining.Result {
	var out []mining.FrequentItemset
	if recycled != nil {
		out = recycled.Itemsets[:0]
	}
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.children {
			if c := e.node; c.frequent {
				out = append(out, mining.FrequentItemset{Set: c.set, Support: c.support})
				walk(c)
			}
		}
	}
	walk(m.root)
	return mining.NewResultInto(recycled, m.minSupport, out)
}

// Closed returns the closed frequent itemsets of the current window — the
// output Moment itself maintains.
func (m *Miner) Closed() *mining.Result {
	return m.Frequent().Closed()
}

// add integrates the record stored at the given window slot.
func (m *Miner) add(rec itemset.Itemset, slot int) {
	m.ensureItems(rec.Items())

	// Walk every tracked subset of rec, setting the slot bit and counting.
	var promoted []*node
	var descend func(c *node, rest []itemset.Item)
	descend = func(c *node, rest []itemset.Item) {
		if c.bm != nil {
			c.bm.Set(slot)
		}
		c.support++
		if !c.frequent && c.support >= m.minSupport {
			c.frequent = true
			promoted = append(promoted, c)
		}
		c.visit(rest, descend)
	}
	m.root.visit(rec.Items(), descend)

	// Promotions run after the walk so every bitmap they consult already
	// reflects the added record.
	for len(promoted) > 0 {
		n := promoted[0]
		promoted = promoted[1:]
		if n.bm == nil {
			n.bm = n.parent.bm.And(m.root.child(n.last).bm)
		}
		promoted = append(promoted, m.expand(n)...)
	}
}

// ensureItems makes sure a level-1 node exists for every item of a
// record. New items are rare once the window has filled, so each one is
// inserted in place.
func (m *Miner) ensureItems(items []itemset.Item) {
	for _, it := range items {
		if at, ok := search(m.root.children, it); !ok {
			m.root.children = slices.Insert(m.root.children, at, edge{it, &node{
				set:    itemset.New(it),
				last:   it,
				bm:     bitset.New(m.capacity),
				parent: m.root,
			}})
		}
	}
}

// expand gives a freshly promoted node its candidate children and registers
// the candidate it justifies under each smaller frequent sibling. It returns
// any created node that is immediately frequent (cascade promotions), with
// its bitmap already materialized.
func (m *Miner) expand(n *node) []*node {
	var cascades []*node
	for _, e := range n.parent.children {
		sib := e.node
		if sib == n || !sib.frequent {
			continue
		}
		var c *node
		if e.item > n.last {
			c = m.createChild(n, e.item)
		} else {
			c = m.createChild(sib, n.last)
		}
		if c != nil {
			cascades = append(cascades, c)
		}
	}
	return cascades
}

// createChild materializes the candidate parent+item if absent. The support
// is computed by ANDing the parent bitmap with the item's level-1 bitmap;
// the intersection itself is only allocated when the child starts frequent.
// It returns the node if it was both created and immediately frequent, nil
// otherwise.
func (m *Miner) createChild(parent *node, it itemset.Item) *node {
	at, ok := search(parent.children, it)
	if ok {
		return nil
	}
	itemNode := m.root.child(it)
	if itemNode == nil {
		return nil // the item has no occurrences in the window at all
	}
	c := &node{
		set:     parent.set.With(it),
		last:    it,
		support: parent.bm.AndCount(itemNode.bm),
		parent:  parent,
	}
	parent.children = slices.Insert(parent.children, at, edge{it, c})
	if c.support >= m.minSupport {
		c.frequent = true
		c.bm = parent.bm.And(itemNode.bm)
		return c
	}
	return nil
}

// remove retracts the record stored at the given window slot.
func (m *Miner) remove(rec itemset.Itemset, slot int) {
	var demoted []*node
	var descend func(c *node, rest []itemset.Item)
	descend = func(c *node, rest []itemset.Item) {
		if c.bm != nil {
			c.bm.Clear(slot)
		}
		c.support--
		if c.frequent && c.support < m.minSupport {
			c.frequent = false
			demoted = append(demoted, c)
		}
		c.visit(rest, descend)
	}
	m.root.visit(rec.Items(), descend)

	// A demoted node keeps its own slot in the tree (it is now border) but
	// loses its subtree — every tracked descendant has support at most the
	// demoted node's, hence is infrequent too — and its bitmap, which is
	// rebuilt from the parent if it is ever promoted again. Level-1 nodes
	// keep their bitmaps: they are the basis for every rebuild.
	for _, n := range demoted {
		n.children = nil
		if !n.level1() {
			n.bm = nil
		}
	}

	// Drop level-1 nodes that vanished from the window entirely so the item
	// table cannot grow without bound on long streams. Only the removed
	// record's items can have reached zero.
	for _, it := range rec.Items() {
		if c := m.root.child(it); c != nil && c.support == 0 {
			m.root.children = slices.DeleteFunc(m.root.children, func(e edge) bool { return e.node.support == 0 })
			break
		}
	}
}

// nodeCount returns the number of tracked nodes (frequent + border), used by
// efficiency tests and diagnostics.
func (m *Miner) nodeCount() int {
	n := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		for _, e := range nd.children {
			n++
			walk(e.node)
		}
	}
	walk(m.root)
	return n
}
