package mining

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/itemset"
)

// eclatVertical is one frequent single item with its vertical transaction-id
// bitmap — the root of one prefix equivalence class of the Eclat search tree.
type eclatVertical struct {
	item itemset.Item
	bm   *bitset.Bitset
	sup  int
}

// eclatRoots builds the vertical bitmaps of db's frequent single items,
// sorted by item id. The recursion only ANDs them into fresh bitmaps.
func eclatRoots(db *itemset.Database, minSupport int) []eclatVertical {
	n := db.Len()
	tidmaps := map[itemset.Item]*bitset.Bitset{}
	for tid, rec := range db.Records() {
		for _, it := range rec.Items() {
			bm, ok := tidmaps[it]
			if !ok {
				bm = bitset.New(n)
				tidmaps[it] = bm
			}
			bm.Set(tid)
		}
	}
	var roots []eclatVertical
	for it, bm := range tidmaps {
		if sup := bm.Count(); sup >= minSupport {
			roots = append(roots, eclatVertical{it, bm, sup})
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].item < roots[j].item })
	return roots
}

// eclatExtend runs the depth-first Eclat extension below one prefix: at each
// prefix, try to extend with every frequent sibling item larger than the last
// one, appending discoveries to *out.
func eclatExtend(prefix itemset.Itemset, prefixBM *bitset.Bitset, siblings []eclatVertical, minSupport int, out *[]FrequentItemset) {
	for i, s := range siblings {
		bm := prefixBM.And(s.bm)
		sup := bm.Count()
		if sup < minSupport {
			continue
		}
		next := prefix.With(s.item)
		*out = append(*out, FrequentItemset{next, sup})
		eclatExtend(next, bm, siblings[i+1:], minSupport, out)
	}
}

// Eclat mines all frequent itemsets of db with support >= minSupport using
// depth-first search over vertical transaction-id bitmaps. It produces the
// same Result as Apriori, typically much faster on the dense windows the
// stream experiments use.
func Eclat(db *itemset.Database, minSupport int) (*Result, error) {
	if err := validate(db, minSupport); err != nil {
		return nil, err
	}
	roots := eclatRoots(db, minSupport)
	var out []FrequentItemset
	for _, r := range roots {
		out = append(out, FrequentItemset{itemset.New(r.item), r.sup})
	}
	for i, r := range roots {
		eclatExtend(itemset.New(r.item), r.bm, roots[i+1:], minSupport, &out)
	}
	return NewResult(minSupport, out), nil
}
