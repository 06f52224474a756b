package pipeline

// Regression tests for the window-buffer freelist between the perturb and
// mine stages: recycling mined-result buffers through the pipeline must be
// invisible in the published bytes, and a Window handed to the emit callback
// must never be disturbed when the buffer it was mined from is recycled into
// a later window.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/data"
)

// poolConfig shrinks the channel depth to 1 so mined-result buffers cycle
// through the freelist as aggressively as the pipeline allows.
func poolConfig(workers int) Config {
	cfg := telemetryTestConfig(workers, nil)
	cfg.Buffer = 1
	return cfg
}

// TestPooledPipelineRunIdentity: with the freelist under maximum pressure
// (Buffer=1), two runs over the same seeded stream publish byte-identical
// windows at every worker count. CI executes this race-enabled.
func TestPooledPipelineRunIdentity(t *testing.T) {
	records := data.WebViewLike(3).Generate(900)
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run1 := renderRun(t, poolConfig(workers), records)
			run2 := renderRun(t, poolConfig(workers), records)
			if run1 != run2 {
				t.Errorf("published output differs between identical pooled runs (workers=%d):\n--- run1 ---\n%s--- run2 ---\n%s",
					workers, run1, run2)
			}
			if !strings.Contains(run1, "== 900") {
				t.Fatalf("run did not publish the final window:\n%s", run1)
			}
		})
	}
}

// TestPooledPipelineRetainedWindows is the cross-stage aliasing detector:
// every Window is rendered when delivered AND retained; after the run every
// retained Window is re-rendered and must match. If a published Output
// aliased a recycled mined-result buffer or publisher scratch, a later
// window would have scribbled over it.
func TestPooledPipelineRetainedWindows(t *testing.T) {
	records := data.WebViewLike(3).Generate(900)
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p, err := New(poolConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			var retained []Window
			var atDelivery []string
			_, err = p.RunContext(context.Background(), SliceSource(records), func(w Window) error {
				retained = append(retained, w)
				atDelivery = append(atDelivery, renderPooledWindow(w))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(retained) == 0 {
				t.Fatal("run published no windows")
			}
			for i, w := range retained {
				if got := renderPooledWindow(w); got != atDelivery[i] {
					t.Fatalf("window %d was mutated after delivery (buffer recycling aliased it):\n--- at delivery ---\n%s--- now ---\n%s",
						i, atDelivery[i], got)
				}
			}
			// Retained outputs must also index correctly after the run — the
			// lazy support index cannot depend on recycled mining state.
			last := retained[len(retained)-1].Output
			if len(last.Items) > 0 {
				it := last.Items[0]
				if sup, ok := last.Support(it.Set); !ok || sup != it.Support {
					t.Fatalf("retained output index broken: Support(%v) = %d,%v want %d,true",
						it.Set, sup, ok, it.Support)
				}
			}
		})
	}
}

func renderPooledWindow(w Window) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %d\n", w.Position)
	for _, it := range w.Output.Items {
		fmt.Fprintf(&b, "%s %d\n", it.Set.Key(), it.Support)
	}
	return b.String()
}

// TestPooledClosedOnlyRunIdentity covers the freelist's bypass: closed-only
// runs never recycle (the closure filter derives fresh results), and must
// remain deterministic with the small buffer all the same.
func TestPooledClosedOnlyRunIdentity(t *testing.T) {
	records := data.WebViewLike(3).Generate(900)
	cfg := poolConfig(2)
	cfg.ClosedOnly = true
	run1 := renderRun(t, cfg, records)
	run2 := renderRun(t, cfg, records)
	if run1 != run2 {
		t.Errorf("closed-only pooled runs differ:\n--- run1 ---\n%s--- run2 ---\n%s", run1, run2)
	}
}
