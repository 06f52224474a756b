package trace

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock steps a synthetic clock by a fixed amount per reading, making
// span times and durations deterministic.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// newTestTracer returns a tracer and a deterministic clock starting at the
// tracer's epoch and advancing step per reading.
func newTestTracer(opts Options, step time.Duration) (*Tracer, *fakeClock) {
	t := New(opts)
	return t, &fakeClock{t: t.epoch, step: step}
}

// commitWindow records one synthetic window with a mine and an emit span,
// reading now for the root's start and end and each span's start; every
// span carries the window id as an attribute so torn reads are detectable.
func commitWindow(tr *Tracer, now func() time.Time, id uint64) {
	w := tr.StartRoot(KindWindow, now())
	w.SetID(id)
	w.Attr(AttrWindow, int64(id))
	w.Add(KindMine, now(), time.Millisecond).Attr(AttrWindow, int64(id))
	w.Add(KindEmit, now(), time.Millisecond).Attr(AttrWindow, int64(id))
	tr.Commit(w, now())
}

func TestTracerBasicSnapshot(t *testing.T) {
	tr, clock := newTestTracer(Options{Windows: 8}, time.Millisecond)
	for id := uint64(1); id <= 3; id++ {
		commitWindow(tr, clock.now, id)
	}
	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("snapshot holds %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Window != uint64(i+1) {
			t.Errorf("record %d has window id %d, want %d (commit-ordered)", i, rec.Window, i+1)
		}
		if rec.Dur <= 0 {
			t.Errorf("record %d has non-positive root duration %v", i, rec.Dur)
		}
		if len(rec.Spans) != 2 {
			t.Fatalf("record %d has %d spans, want 2", i, len(rec.Spans))
		}
		if rec.Spans[0].Name != "mine" || rec.Spans[1].Name != "emit" {
			t.Errorf("record %d span names %q/%q, want mine/emit", i, rec.Spans[0].Name, rec.Spans[1].Name)
		}
		for _, sp := range rec.Spans {
			if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "window" || sp.Attrs[0].Val != int64(rec.Window) {
				t.Errorf("record %d span %s attrs %v, want window=%d", i, sp.Name, sp.Attrs, rec.Window)
			}
		}
	}
}

// TestTracerRingWraparound floods a small ring and checks only the newest
// Capacity windows remain (exemplars aside, which keep their own copies).
func TestTracerRingWraparound(t *testing.T) {
	tr, clock := newTestTracer(Options{Windows: 4, TopK: -1}, time.Microsecond)
	for id := uint64(1); id <= 10; id++ {
		commitWindow(tr, clock.now, id)
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot holds %d records, want ring capacity 4", len(recs))
	}
	for i, rec := range recs {
		want := uint64(7 + i)
		if rec.Window != want {
			t.Errorf("record %d is window %d, want %d (newest 4 retained)", i, rec.Window, want)
		}
	}
}

// TestTracerConcurrentCommitEvictionRace drives many concurrent committers
// around a tiny ring while readers snapshot continuously — the wraparound
// eviction race under -race. Every span carries its window id as an
// attribute; a torn read would surface as a record whose span attributes
// disagree with its id.
func TestTracerConcurrentCommitEvictionRace(t *testing.T) {
	tr := New(Options{Windows: 4, TopK: 4})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range tr.Snapshot() {
					for _, sp := range rec.Spans {
						for _, a := range sp.Attrs {
							if a.Key == "window" && a.Val != int64(rec.Window) {
								t.Errorf("torn read: record %d has span attr window=%d", rec.Window, a.Val)
								return
							}
						}
					}
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				commitWindow(tr, time.Now, uint64(g*perWriter+i+1))
			}
		}(g)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	if got := len(tr.Snapshot()); got < 4 {
		t.Errorf("post-race snapshot holds %d records, want >= ring capacity 4", got)
	}
}

// TestTracerExemplarsSurviveEviction commits one slow window early, floods
// the ring with fast windows, and checks the slow window is still visible —
// in the exemplar store and in the full snapshot.
func TestTracerExemplarsSurviveEviction(t *testing.T) {
	tr, clock := newTestTracer(Options{Windows: 4, TopK: 2}, time.Microsecond)

	clock.step = 50 * time.Millisecond // slow window: wide clock steps
	commitWindow(tr, clock.now, 999)
	clock.step = time.Microsecond
	for id := uint64(1); id <= 20; id++ {
		commitWindow(tr, clock.now, id)
	}

	ex := tr.Exemplars()
	if len(ex) == 0 || ex[0].Window != 999 {
		t.Fatalf("slowest exemplar is %+v, want window 999", ex)
	}
	found := false
	for _, rec := range tr.Snapshot() {
		if rec.Window == 999 {
			found = true
		}
	}
	if !found {
		t.Error("window 999 evicted from the ring was not preserved by the exemplar store")
	}
	if got := len(tr.Snapshot()); got != 4+2 {
		t.Errorf("snapshot holds %d records, want 4 ring + 2 surviving exemplars (TopK)", got)
	}
}

// TestTracerZeroAllocHotPath is the acceptance criterion: after warm-up,
// recording and committing a full window allocates nothing.
func TestTracerZeroAllocHotPath(t *testing.T) {
	tr := New(Options{Windows: 16})
	reg := telemetry.NewRegistry()
	tr.SetMetrics(reg)
	record := func() {
		w := tr.StartRoot(KindWindow, time.Now())
		w.SetID(42)
		w.Attr(AttrRecords, 1000)
		sp := w.Add(KindMine, time.Now(), time.Millisecond)
		sp.Attr(AttrWindow, 42)
		w.Add(KindPerturb, time.Now(), time.Millisecond)
		w.Add(KindEmit, time.Now(), time.Millisecond).Attr(AttrRetries, 0)
		tr.Commit(w, time.Now())
	}
	for i := 0; i < 64; i++ {
		record() // warm the free list and the exemplar store
	}
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Errorf("span hot path allocates %v objects per window after warm-up, want 0", allocs)
	}
}

// TestTracerGoroutineLeak pins the design point that the tracer spawns no
// goroutines of its own — heavy use leaves the goroutine count unchanged.
func TestTracerGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := New(Options{Windows: 8})
	for id := uint64(1); id <= 100; id++ {
		commitWindow(tr, time.Now, id)
	}
	tr.Snapshot()
	tr.Exemplars()
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("tracer use grew the goroutine count from %d to %d", before, after)
	}
}

// TestTracerNilSafety: a disabled tracer and its nil windows must be inert
// on every method.
func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	w := tr.StartRoot(KindWindow, time.Now())
	if w != nil {
		t.Fatal("nil tracer returned a non-nil window")
	}
	w.SetID(1)
	w.Attr(AttrWindow, 1)
	w.Add(KindMine, time.Now(), time.Second).Attr(AttrWindow, 1)
	tr.Commit(w, time.Now())
	tr.SetMetrics(telemetry.NewRegistry())
	if tr.Snapshot() != nil || tr.Exemplars() != nil {
		t.Error("nil tracer snapshot not nil")
	}
	if tr.Capacity() != 0 {
		t.Error("nil tracer capacity not 0")
	}

	// A live tracer must also tolerate span overflow by counting drops.
	live := New(Options{Windows: 2})
	lw := live.StartRoot(KindWindow, time.Now())
	for i := 0; i < MaxSpans+5; i++ {
		lw.Add(KindRetry, time.Now(), time.Millisecond)
	}
	live.Commit(lw, time.Now())
	recs := live.Snapshot()
	if len(recs) != 1 || recs[0].Dropped != 5 {
		t.Fatalf("overflowed window recorded %+v, want Dropped=5", recs)
	}
}

// TestTracerMetricsMirror checks the commit-time telemetry bridge: span
// histograms fill by kind and the slowest-window gauge tracks the max.
func TestTracerMetricsMirror(t *testing.T) {
	tr, clock := newTestTracer(Options{Windows: 8}, time.Millisecond)
	reg := telemetry.NewRegistry()
	tr.SetMetrics(reg)
	commitWindow(tr, clock.now, 1)
	clock.step = 100 * time.Millisecond
	commitWindow(tr, clock.now, 2)

	var slowest float64
	hist := map[string]uint64{}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			switch f.Name {
			case MetricSlowestWindow:
				slowest = s.Value
			case MetricSpanSeconds:
				hist[s.Labels] += s.Count
			}
		}
	}
	if slowest < 0.1 {
		t.Errorf("slowest-window gauge %v, want >= 0.1s (the slow window)", slowest)
	}
	for _, label := range []string{`{span="window"}`, `{span="mine"}`, `{span="emit"}`} {
		if hist[label] != 2 {
			t.Errorf("span histogram %s observed %d, want 2", label, hist[label])
		}
	}
}
