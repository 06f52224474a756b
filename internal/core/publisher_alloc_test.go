package core

// Allocation pins for the publish hot path. The publisher's per-window
// scratch (FEC arena, ladder memo, batched draws, key buffer, pointer-backed
// republication cache) exists so a steady-state window costs a handful of
// allocations — the Output header and its Items backing — rather than one
// or more per published itemset. These tests pin that property with
// testing.AllocsPerRun so a regression (a map rebuilt per window, a key
// string interned per itemset, a comparator allocating per comparison)
// fails loudly with a number attached.
//
// The bounds are per-WINDOW and deliberately leave headroom over the
// measured steady state (single digits at workers=1, where the chunks run
// inline; a few dozen at workers=8, which pays per-goroutine setup): they are tripwires for
// per-itemset regressions — the mined windows here hold ~140 itemsets, so
// even a single alloc-per-itemset defect blows through them.

import (
	"fmt"
	"testing"

	"repro/internal/itemset"
	"repro/internal/mining"
)

// pinBounds: measured steady state is a handful of allocs/window at
// workers=1 and ~35 at workers=8 (8 goroutines + their key buffers +
// scheduling).
const (
	allocBoundInline = 16
	allocBoundFanOut = 96
)

// denseResult builds a window with nClasses FECs of perClass itemsets each —
// dense enough that a per-itemset allocation regression overshoots the pin
// by an order of magnitude.
func denseResult(nClasses, perClass, baseSupport int) *mining.Result {
	var sets []mining.FrequentItemset
	next := itemset.Item(0)
	for c := 0; c < nClasses; c++ {
		for k := 0; k < perClass; k++ {
			sets = append(sets, mining.FrequentItemset{
				Set:     itemset.New(next, next+1, next+2),
				Support: baseSupport + c,
			})
			next += 3
		}
	}
	return mining.NewResult(baseSupport, sets)
}

func pinPublishAllocs(t *testing.T, workers int, cacheHits bool) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	pub := newTestPublisher(t, Hybrid{Lambda: 0.4})
	pub.SetWorkers(workers)
	if !cacheHits {
		// DELIBERATELY INSECURE test mode: disabling consistent
		// republication forces the miss path every window.
		pub.SetRepublicationCache(false)
	}
	steady := denseResult(40, 10, 12)
	// Warm-up: populate the cache, grow every scratch buffer to the
	// window's high-water mark, and warm the bias memo.
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(steady, 150); err != nil {
			t.Fatal(err)
		}
	}
	bound := float64(allocBoundInline)
	if workers > 1 {
		bound = allocBoundFanOut
	}
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := pub.Publish(steady, 150); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("workers=%d cacheHits=%v: %.1f allocs/window for %d itemsets", workers, cacheHits, allocs, steady.Len())
	if allocs > bound {
		t.Errorf("steady-state Publish allocates %.1f objects/window (workers=%d, cacheHits=%v, %d itemsets), want <= %.0f",
			allocs, workers, cacheHits, steady.Len(), bound)
	}
	// The pin must also stay far below one alloc per itemset — the regime
	// the flat buffers replaced.
	if allocs > float64(steady.Len())/2 {
		t.Errorf("steady-state Publish allocates %.1f objects for %d itemsets — per-itemset allocation is back",
			allocs, steady.Len())
	}
}

func TestPublishAllocsPinned(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, hits := range []bool{true, false} {
			name := fmt.Sprintf("workers=%d/hits=%v", workers, hits)
			t.Run(name, func(t *testing.T) { pinPublishAllocs(t, workers, hits) })
		}
	}
}
