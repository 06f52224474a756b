package mining_test

// Cross-miner differential harness: the repository carries three
// independent frequent-itemset miners — levelwise Apriori (the oracle),
// vertical-bitmap Eclat and the incremental Moment tree. These tests pin
// them to each other on a corpus of seeded random databases: every miner
// must produce the exact same (itemset, support) map at every minimum
// support, and Moment must keep agreeing after every sliding-window update.

import (
	"fmt"
	"testing"

	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/mining/moment"
	"repro/internal/rng"
)

// randomDatabase draws a small random transaction database: nRecords
// transactions over a universe of nItems items, lengths 1..maxLen, with a
// mild popularity skew so that interesting multi-item patterns exist.
func randomDatabase(seed uint64, nRecords, nItems, maxLen int) *itemset.Database {
	src := rng.New(seed)
	zipf := rng.NewZipf(src, nItems, 0.8)
	recs := make([]itemset.Itemset, nRecords)
	for i := range recs {
		length := 1 + src.Intn(maxLen)
		items := make([]itemset.Item, 0, length)
		for j := 0; j < length; j++ {
			items = append(items, itemset.Item(zipf.Draw()))
		}
		recs[i] = itemset.New(items...)
	}
	return itemset.NewDatabase(recs)
}

// resultMap flattens a mining result into a support-by-key map for equality
// checks that ignore ordering.
func resultMap(res *mining.Result) map[string]int {
	m := make(map[string]int, res.Len())
	for _, fi := range res.Itemsets {
		m[fi.Set.Key()] = fi.Support
	}
	return m
}

// diffResults fails the test with a readable diff when two miners disagree.
func diffResults(t *testing.T, name string, want, got map[string]int) {
	t.Helper()
	if len(want) == len(got) {
		same := true
		for k, v := range want {
			if got[k] != v {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	t.Errorf("%s disagrees with Apriori: %d vs %d itemsets", name, len(got), len(want))
	for k, v := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("  missing itemset (support %d)", v)
		} else if g != v {
			t.Errorf("  support mismatch: got %d want %d", g, v)
		}
		if t.Failed() && len(want) > 40 {
			t.Fatalf("  (stopping diff early)")
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("  spurious itemset (support %d)", got[k])
		}
	}
}

// TestMinersAgreeOnRandomDatabases runs the per-window miners over ~50
// seeded random databases and several minimum supports, requiring identical
// (itemset, support) maps.
func TestMinersAgreeOnRandomDatabases(t *testing.T) {
	const databases = 50
	minSupports := []int{2, 3, 5, 9}
	for seed := uint64(1); seed <= databases; seed++ {
		db := randomDatabase(seed, 60+int(seed%5)*10, 10, 6)
		for _, minsup := range minSupports {
			want, err := mining.Apriori(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			eclat, err := mining.Eclat(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, fmt.Sprintf("seed %d minsup %d: Eclat", seed, minsup), resultMap(want), resultMap(eclat))
			if t.Failed() {
				t.Fatalf("stopping after first disagreeing database (seed %d)", seed)
			}
		}
	}
}

// TestMomentAgreesAcrossSlides streams random records through the Moment
// miner and, on a cadence of window slides, re-mines the materialized window
// with Apriori and Eclat, requiring exact agreement each time.
func TestMomentAgreesAcrossSlides(t *testing.T) {
	const (
		capacity = 40
		minsup   = 3
		records  = 140
	)
	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed * 7919)
		zipf := rng.NewZipf(src, 9, 0.9)
		m := moment.New(capacity, minsup)
		for i := 0; i < records; i++ {
			length := 1 + src.Intn(5)
			items := make([]itemset.Item, 0, length)
			for j := 0; j < length; j++ {
				items = append(items, itemset.Item(zipf.Draw()))
			}
			m.Push(itemset.New(items...))
			if m.Len() < capacity || i%13 != 0 {
				continue
			}
			db := m.Database()
			want, err := mining.Apriori(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			wantMap := resultMap(want)
			diffResults(t, fmt.Sprintf("seed %d pos %d: Moment", seed, i), wantMap, resultMap(m.Frequent()))
			eclat, err := mining.Eclat(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, fmt.Sprintf("seed %d pos %d: Eclat", seed, i), wantMap, resultMap(eclat))
			if t.Failed() {
				t.Fatalf("stopping after first disagreeing window (seed %d, position %d)", seed, i)
			}
		}
	}
}
