package core

// Regression tests for the chunked-RNG publication path. The determinism
// contract under test (see Publisher.SetWorkers): every worker count
// publishes byte-identical output for a fixed seed, because chunk boundaries
// and per-chunk seeds are functions of the data alone, never of the pool
// size.

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/rng"
)

// minedWindows mines a few overlapping windows of a synthetic stream,
// giving the publisher a realistic multi-window workload (changing supports
// exercise both cache hits and fresh draws).
func minedWindows(t *testing.T) []*mining.Result {
	t.Helper()
	gen := data.WebViewLike(3)
	records := gen.Generate(900)
	var out []*mining.Result
	for start := 0; start+600 <= len(records); start += 100 {
		db := itemset.NewDatabase(records[start : start+600])
		res, err := mining.Eclat(db, 12)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatal("empty window, workload too sparse")
		}
		out = append(out, res)
	}
	return out
}

func publishAll(t *testing.T, workers int, scheme Scheme, results []*mining.Result) []*Output {
	t.Helper()
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 12, VulnSupport: 5}
	pub, err := NewPublisher(p, scheme, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		pub.SetWorkers(workers)
	}
	outs := make([]*Output, len(results))
	for i, res := range results {
		out, err := pub.Publish(res, 600)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	return outs
}

func sameOutputs(t *testing.T, label string, a, b []*Output) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d windows", label, len(a), len(b))
	}
	for w := range a {
		if a[w].Len() != b[w].Len() {
			t.Fatalf("%s: window %d has %d vs %d itemsets", label, w, a[w].Len(), b[w].Len())
		}
		for i := range a[w].Items {
			x, y := a[w].Items[i], b[w].Items[i]
			if !x.Set.Equal(y.Set) || x.Support != y.Support {
				t.Fatalf("%s: window %d item %d: %v/%d vs %v/%d",
					label, w, i, x.Set, x.Support, y.Set, y.Support)
			}
		}
	}
}

// TestChunkedPublishWorkerCountInvariance publishes the same multi-window
// stream inline (the default and workers=1) and with pools of 2, 3, 5 and 8
// workers, and requires identical output from all of them, for both a
// shared-draw scheme and the per-itemset Basic scheme.
func TestChunkedPublishWorkerCountInvariance(t *testing.T) {
	results := minedWindows(t)
	for _, scheme := range []Scheme{Basic{}, Hybrid{Lambda: 0.4}} {
		ref := publishAll(t, 1, scheme, results)
		for _, workers := range []int{0, 2, 3, 5, 8} {
			got := publishAll(t, workers, scheme, results)
			sameOutputs(t, fmt.Sprintf("%s workers=%d", scheme.Name(), workers), ref, got)
		}
	}
}

// TestChunkedPublishStaysInPerturbationRegion checks the (ε, δ) calibration
// is honoured by the chunked path: under the Basic scheme (bias 0) every
// sanitized support stays within α/2 of the true support.
func TestChunkedPublishStaysInPerturbationRegion(t *testing.T) {
	results := minedWindows(t)
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 12, VulnSupport: 5}
	half := p.Alpha() / 2
	outs := publishAll(t, 4, Basic{}, results)
	for w, out := range outs {
		for _, item := range out.Items {
			trueSup, ok := results[w].Support(item.Set)
			if !ok {
				t.Fatalf("window %d published unmined itemset %v", w, item.Set)
			}
			if diff := item.Support - trueSup; diff < -half || diff > half {
				t.Fatalf("window %d: %v perturbed by %d, outside ±%d", w, item.Set, diff, half)
			}
		}
	}
}

// TestChunkedPublishRepublishesConsistently pins that the republication
// cache works under a worker pool: republishing a window
// whose supports did not change returns the same sanitized values.
func TestChunkedPublishRepublishesConsistently(t *testing.T) {
	results := minedWindows(t)
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 12, VulnSupport: 5}
	pub, err := NewPublisher(p, Hybrid{Lambda: 0.4}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pub.SetWorkers(4)
	first, err := pub.Publish(results[0], 600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := pub.Publish(results[0], 600)
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, "republication", []*Output{first}, []*Output{again})
	}
}

// TestChunkedSharedDrawsKeepClassesEqual checks that under shared-draw
// schemes all members of a frequency equivalence class still publish the
// same sanitized value when perturbed by the chunked path (the chunk split
// is by class, so a class never straddles two RNG streams). The
// republication cache is disabled because a cache hit from an earlier
// window legitimately differs from the current window's class draw.
func TestChunkedSharedDrawsKeepClassesEqual(t *testing.T) {
	results := minedWindows(t)
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 12, VulnSupport: 5}
	pub, err := NewPublisher(p, Hybrid{Lambda: 0.4}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	pub.SetWorkers(8)
	pub.SetRepublicationCache(false)
	outs := make([]*Output, len(results))
	for i, res := range results {
		if outs[i], err = pub.Publish(res, 600); err != nil {
			t.Fatal(err)
		}
	}
	for w, out := range outs {
		byTrue := map[int]int{} // true support -> sanitized
		for _, item := range out.Items {
			trueSup, _ := results[w].Support(item.Set)
			if prev, seen := byTrue[trueSup]; seen && prev != item.Support {
				t.Fatalf("window %d: class with support %d published both %d and %d",
					w, trueSup, prev, item.Support)
			}
			byTrue[trueSup] = item.Support
		}
	}
}
