package pipeline_test

// Shutdown-path and supervision tests: emit errors mid-run, perturbation
// errors with Raw=false, context cancellation, watchdog timeouts, and
// transient-fault retries — each asserting that the first error wins
// deterministically and that no goroutine outlives the run.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/pipeline"
)

// leakCheck snapshots the goroutine count; the returned func fails the test
// if the count has not settled back by the deadline (a settle loop, since
// stages inside user callbacks unwind asynchronously after cancellation).
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after settle\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	}
}

// TestEmitErrorMidRunShutsDownCleanly: a permanent emit failure mid-run
// cancels the upstream stages, returns that error (not a cancellation
// artifact), and leaks nothing — inline and with a worker pool, repeatedly, so the
// first-error choice is shown to be deterministic.
func TestEmitErrorMidRunShutsDownCleanly(t *testing.T) {
	sentinel := errors.New("sink rejected the window")
	records := testRecords(t, 900)
	for _, workers := range []int{1, 8} {
		for round := 0; round < 5; round++ {
			check := leakCheck(t)
			p, err := pipeline.New(testConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			rep, err := p.RunContext(context.Background(), pipeline.SliceSource(records),
				func(pipeline.Window) error {
					calls++
					if calls == 2 {
						return sentinel
					}
					return nil
				})
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d round=%d: got %v, want the emit error", workers, round, err)
			}
			if rep.Published != 1 {
				t.Fatalf("workers=%d: published %d windows before the failure, want 1", workers, rep.Published)
			}
			check()
		}
	}
}

// wrongCountScheme returns the wrong number of biases, the one perturbation
// failure reachable through the public Scheme interface.
type wrongCountScheme struct{}

func (wrongCountScheme) Name() string                          { return "wrong-count" }
func (wrongCountScheme) SharedDraws() bool                     { return true }
func (wrongCountScheme) Biases([]fec.Class, core.Params) []int { return nil }

// TestPerturbErrorShutsDownCleanly: a perturbation failure with Raw=false
// fails the run with an error naming the window, emit never sees a window,
// and nothing leaks.
func TestPerturbErrorShutsDownCleanly(t *testing.T) {
	records := testRecords(t, 900)
	for _, workers := range []int{1, 8} {
		check := leakCheck(t)
		cfg := testConfig(workers)
		cfg.Scheme = wrongCountScheme{}
		p, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		rep, err := p.RunContext(context.Background(), pipeline.SliceSource(records),
			func(pipeline.Window) error { emitted++; return nil })
		if err == nil || !strings.Contains(err.Error(), "perturbing window") {
			t.Fatalf("workers=%d: got %v, want a perturbation error", workers, err)
		}
		if emitted != 0 || rep.Published != 0 {
			t.Fatalf("workers=%d: %d windows emitted after perturbation failure", workers, emitted)
		}
		check()
	}
}

// TestContextCancellationReturnsPromptlyNoLeak: canceling the context
// mid-run returns context.Canceled well within a watchdog period, with all
// stage goroutines gone after the settle loop.
func TestContextCancellationReturnsPromptlyNoLeak(t *testing.T) {
	records := testRecords(t, 900)
	for _, workers := range []int{1, 8} {
		check := leakCheck(t)
		cfg := testConfig(workers)
		cfg.WindowTimeout = 2 * time.Second
		p, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		start := time.Now()
		_, err = p.RunContext(ctx, pipeline.SliceSource(records),
			func(pipeline.Window) error {
				cancel() // first window: pull the plug mid-run
				return nil
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if elapsed := time.Since(start); elapsed > cfg.WindowTimeout {
			t.Fatalf("workers=%d: cancellation took %v, want < %v", workers, elapsed, cfg.WindowTimeout)
		}
		check()
	}
}

// TestPreCanceledContext: a context canceled before the run starts returns
// immediately without publishing anything.
func TestPreCanceledContext(t *testing.T) {
	check := leakCheck(t)
	p, err := pipeline.New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := p.RunContext(ctx, pipeline.SliceSource(testRecords(t, 900)),
		func(pipeline.Window) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if rep.Published != 0 {
		t.Fatalf("published %d windows under a dead context", rep.Published)
	}
	check()
}

// TestWatchdogTimesOutStalledEmit: an emit that stalls past WindowTimeout
// fails the run with a watchdog error instead of hanging, and the stalled
// goroutine unwinds once the sleep finishes.
func TestWatchdogTimesOutStalledEmit(t *testing.T) {
	check := leakCheck(t)
	cfg := testConfig(4)
	cfg.WindowTimeout = 50 * time.Millisecond
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = p.RunContext(context.Background(), pipeline.SliceSource(testRecords(t, 900)),
		func(pipeline.Window) error {
			time.Sleep(400 * time.Millisecond) // a stuck sink
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("got %v, want a watchdog error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	check()
}

// TestEmitRetriesRecoverTransientFailures: transient emit errors within the
// retry budget are absorbed — the run completes with output identical to a
// fault-free run, and the report counts the retries.
func TestEmitRetriesRecoverTransientFailures(t *testing.T) {
	records := testRecords(t, 900)
	for _, workers := range []int{1, 4} {
		cfg := testConfig(workers)
		ref := collect(t, cfg, records)

		cfg.EmitRetries = 3
		cfg.EmitBackoff = time.Millisecond
		p, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []pipeline.Window
		calls := 0
		rep, err := p.RunContext(context.Background(), pipeline.SliceSource(records),
			func(w pipeline.Window) error {
				calls++
				if calls%3 == 0 {
					return pipeline.Transient(fmt.Errorf("sink hiccup on call %d", calls))
				}
				got = append(got, w)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: transient failures not absorbed: %v", workers, err)
		}
		sameWindows(t, "retried vs fault-free", ref, got)
		if rep.Retries == 0 {
			t.Fatalf("workers=%d: report shows no retries", workers)
		}
		if rep.Published != len(ref) {
			t.Fatalf("workers=%d: published %d, want %d", workers, rep.Published, len(ref))
		}
	}
}

// TestEmitRetryBudgetExhausted: a sink that stays transiently broken longer
// than the budget fails the run with the underlying error attached.
func TestEmitRetryBudgetExhausted(t *testing.T) {
	check := leakCheck(t)
	cfg := testConfig(4)
	cfg.EmitRetries = 2
	cfg.EmitBackoff = time.Millisecond
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink is down")
	_, err = p.RunContext(context.Background(), pipeline.SliceSource(testRecords(t, 900)),
		func(pipeline.Window) error { return pipeline.Transient(sentinel) })
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "after 2 retries") {
		t.Fatalf("got %v, want budget exhaustion wrapping the sink error", err)
	}
	check()
}

// TestEmitPanicRecoveredAndRetried: a panicking sink is recovered, counted,
// and retried like any transient fault; the run still publishes the
// fault-free output.
func TestEmitPanicRecoveredAndRetried(t *testing.T) {
	records := testRecords(t, 900)
	cfg := testConfig(4)
	ref := collect(t, cfg, records)

	cfg.EmitRetries = 1
	cfg.EmitBackoff = time.Millisecond
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []pipeline.Window
	panicked := false
	rep, err := p.RunContext(context.Background(), pipeline.SliceSource(records),
		func(w pipeline.Window) error {
			if !panicked {
				panicked = true
				panic("sink exploded once")
			}
			got = append(got, w)
			return nil
		})
	if err != nil {
		t.Fatalf("recovered panic not retried: %v", err)
	}
	sameWindows(t, "after panic retry", ref, got)
	if rep.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", rep.PanicsRecovered)
	}
}

// TestPermanentEmitErrorNotRetried: non-transient errors fail immediately
// without consuming the retry budget.
func TestPermanentEmitErrorNotRetried(t *testing.T) {
	cfg := testConfig(2)
	cfg.EmitRetries = 5
	cfg.EmitBackoff = time.Millisecond
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("schema mismatch")
	calls := 0
	rep, err := p.RunContext(context.Background(), pipeline.SliceSource(testRecords(t, 900)),
		func(pipeline.Window) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the permanent error", err)
	}
	if calls != 1 || rep.Retries != 0 {
		t.Fatalf("permanent error retried: %d calls, %d retries", calls, rep.Retries)
	}
}

// TestTransientMarking covers the error-classification helpers.
func TestTransientMarking(t *testing.T) {
	if pipeline.Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	base := errors.New("boom")
	wrapped := pipeline.Transient(base)
	if !pipeline.IsTransient(wrapped) {
		t.Error("marked error not transient")
	}
	if pipeline.IsTransient(base) {
		t.Error("unmarked error transient")
	}
	if !errors.Is(wrapped, base) {
		t.Error("Transient broke the error chain")
	}
	if !pipeline.IsTransient(fmt.Errorf("ctx: %w", wrapped)) {
		t.Error("transience lost through wrapping")
	}
}

// TestConfigValidationSupervision exercises New's rejection of the
// supervision knobs.
func TestConfigValidationSupervision(t *testing.T) {
	bad := []func(*pipeline.Config){
		func(c *pipeline.Config) { c.MaxBadRecords = -2 },
		func(c *pipeline.Config) { c.EmitRetries = -1 },
		func(c *pipeline.Config) { c.EmitBackoff = -time.Second },
		func(c *pipeline.Config) { c.WindowTimeout = -time.Second },
	}
	for i, mutate := range bad {
		cfg := testConfig(1)
		mutate(&cfg)
		if _, err := pipeline.New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
