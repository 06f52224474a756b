package pipeline_test

// Kill-and-resume acceptance suite for the crash-safe checkpointing
// tentpole. The correctness bar: a run killed at ANY checkpointed window
// boundary and resumed from the snapshot publishes the remaining windows
// BYTE-IDENTICALLY to an uninterrupted run — including re-published overlap
// windows, which the republication cache must re-serve unchanged (the §VI
// guarantee surviving the crash).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/pipeline"
)

// The fixture publishes 61 windows: window size 60 over 300 records,
// publishing every 4 slides → positions 60, 64, ..., 300.
const (
	resumeWindow  = 60
	resumeRecords = 300
	resumeEvery   = 4
	resumeWindows = (resumeRecords-resumeWindow)/resumeEvery + 1
)

func resumeConfig(workers int, store *checkpoint.Store, ckptEvery int) pipeline.Config {
	return pipeline.Config{
		WindowSize:      resumeWindow,
		Params:          core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		Scheme:          core.Hybrid{Lambda: 0.4},
		Seed:            17,
		PublishEvery:    resumeEvery,
		Workers:         workers,
		Checkpoints:     store,
		CheckpointEvery: ckptEvery,
	}
}

// renderWindow serializes one published window to a canonical string, the
// unit of the byte-identity assertions.
func renderWindow(w pipeline.Window) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "window@%d\n", w.Position)
	for _, it := range w.Output.Items {
		fmt.Fprintf(&sb, "  %v %d\n", it.Set, it.Support)
	}
	return sb.String()
}

// errKilled is the permanent sink failure standing in for the process dying
// right after a window boundary.
var errKilled = errors.New("simulated kill")

// runKilled drives cfg over records through a sink that accepts the first
// kill windows and then dies. It returns the windows delivered before death;
// kill >= the total window count delivers everything without an error.
func runKilled(t *testing.T, cfg pipeline.Config, records []itemset.Itemset, kill int) []string {
	t.Helper()
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	_, err = p.RunContext(context.Background(), pipeline.SliceSource(records),
		func(w pipeline.Window) error {
			if len(out) >= kill {
				return errKilled
			}
			out = append(out, renderWindow(w))
			return nil
		})
	if kill < resumeWindows {
		if !errors.Is(err, errKilled) {
			t.Fatalf("killed run: %v, want the simulated kill", err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	if len(out) != min(kill, resumeWindows) {
		t.Fatalf("killed run delivered %d windows, want %d", len(out), min(kill, resumeWindows))
	}
	return out
}

// resumeRun loads the newest snapshot from store and continues the run over
// a fresh re-opened source, returning the windows it publishes.
func resumeRun(t *testing.T, cfg pipeline.Config, store *checkpoint.Store, records []itemset.Itemset) []string {
	t.Helper()
	snap, _, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no usable checkpoint to resume from")
	}
	cfg.Resume = snap
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	rep, err := p.RunContext(context.Background(), pipeline.SliceSource(records),
		func(w pipeline.Window) error {
			out = append(out, renderWindow(w))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The replayed prefix is part of the resumed run's accounting, so the
	// report matches an uninterrupted run's view of the stream.
	if rep.Records != resumeRecords {
		t.Fatalf("resumed report counts %d records, want %d", rep.Records, resumeRecords)
	}
	return out
}

// reference runs cfg uninterrupted with no checkpointing and returns all
// windows.
func reference(t *testing.T, workers int, records []itemset.Itemset) []string {
	t.Helper()
	ref := runKilled(t, resumeConfig(workers, nil, 0), records, resumeWindows)
	if len(ref) != resumeWindows {
		t.Fatalf("fixture published %d windows, want %d", len(ref), resumeWindows)
	}
	return ref
}

func sameTail(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: window %d differs:\n got %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

// TestCheckpointingIsTransparent: turning checkpointing on changes no
// published byte.
func TestCheckpointingIsTransparent(t *testing.T) {
	records := testRecords(t, resumeRecords)
	for _, workers := range []int{1, 4} {
		store, err := checkpoint.NewStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := runKilled(t, resumeConfig(workers, store, 1), records, resumeWindows)
		sameTail(t, fmt.Sprintf("checkpointed vs plain, workers=%d", workers),
			got, reference(t, workers, records))
		gens, err := store.Generations()
		if err != nil || len(gens) == 0 {
			t.Fatalf("no generations written: %v, %v", gens, err)
		}
	}
}

// TestKillAndResumeByteIdentical is the acceptance sweep: kill the run after
// EVERY checkpointed window boundary of the 61-window fixture and resume;
// the resumed tail must be byte-identical to the uninterrupted reference, at
// workers 1, 2 and 8.
func TestKillAndResumeByteIdentical(t *testing.T) {
	records := testRecords(t, resumeRecords)
	step := 1
	if testing.Short() {
		step = 7
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref := reference(t, workers, records)
			for kill := 1; kill <= resumeWindows; kill += step {
				store, err := checkpoint.NewStore(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				head := runKilled(t, resumeConfig(workers, store, 1), records, kill)
				sameTail(t, fmt.Sprintf("kill=%d head", kill), head, ref[:kill])
				tail := resumeRun(t, resumeConfig(workers, store, 1), store, records)
				sameTail(t, fmt.Sprintf("kill=%d resumed tail", kill), tail, ref[kill:])
			}
		})
	}
}

// TestSparseCheckpointRepublishesOverlapIdentically: with CheckpointEvery=3
// a kill between checkpoints resumes from an EARLIER boundary, re-publishing
// the overlap windows — which must be byte-identical to their first
// publication (the republication cache re-serving, §VI), not fresh draws.
func TestSparseCheckpointRepublishesOverlapIdentically(t *testing.T) {
	records := testRecords(t, resumeRecords)
	for _, workers := range []int{1, 4} {
		ref := reference(t, workers, records)
		for _, kill := range []int{4, 7, 11, 32} {
			store, err := checkpoint.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			runKilled(t, resumeConfig(workers, store, 3), records, kill)
			lastCkpt := (kill / 3) * 3
			tail := resumeRun(t, resumeConfig(workers, store, 3), store, records)
			label := fmt.Sprintf("workers=%d kill=%d (checkpoint at %d)", workers, kill, lastCkpt)
			sameTail(t, label, tail, ref[lastCkpt:])
		}
	}
}

// TestResumePastCorruptedLatestGeneration: bit rot in the newest snapshot
// falls back one generation; the longer re-published overlap is still
// byte-identical.
func TestResumePastCorruptedLatestGeneration(t *testing.T) {
	records := testRecords(t, resumeRecords)
	ref := reference(t, 2, records)
	const kill = 10
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, resumeConfig(2, store, 1), records, kill)
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(gens[len(gens)-1], -1); err != nil {
		t.Fatal(err)
	}
	var warned bool
	store.Logf = func(string, ...any) { warned = true }
	tail := resumeRun(t, resumeConfig(2, store, 1), store, records)
	sameTail(t, "resume past corruption", tail, ref[kill-1:])
	if !warned {
		t.Fatal("corrupt generation skipped without a warning")
	}
}

// TestCrashDuringCheckpointSaveThenResume: the process dies INSIDE the
// checkpoint write protocol — before the write, before the rename, or with
// a torn file under the final name. In every case the store's previous
// generation carries the resume, byte-identically.
func TestCrashDuringCheckpointSaveThenResume(t *testing.T) {
	records := testRecords(t, resumeRecords)
	ref := reference(t, 2, records)
	for _, point := range []string{
		checkpoint.CrashBeforeWrite,
		checkpoint.CrashBeforeRename,
		checkpoint.CrashTornWrite,
	} {
		t.Run(point, func(t *testing.T) {
			const dieOnSave = 6
			store, err := checkpoint.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			store.Logf = func(string, ...any) {}
			plan := &faultinject.CrashPlan{Point: point, OnSave: dieOnSave}
			store.CrashHook = plan.Hook()
			p, err := pipeline.New(resumeConfig(2, store, 1))
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			_, err = p.RunContext(context.Background(), pipeline.SliceSource(records),
				func(pipeline.Window) error { delivered++; return nil })
			if !errors.Is(err, checkpoint.ErrInjectedCrash) {
				t.Fatalf("run: %v, want the injected crash", err)
			}
			if plan.Fired() != 1 || delivered != dieOnSave {
				t.Fatalf("crash fired %d times after %d deliveries, want 1 after %d",
					plan.Fired(), delivered, dieOnSave)
			}
			// "Restart": a fresh store over the same directory, no crash plan.
			store, err = checkpoint.NewStore(store.Dir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			store.Logf = func(string, ...any) {}
			tail := resumeRun(t, resumeConfig(2, store, 1), store, records)
			// Save dieOnSave never committed, so the resume point is the
			// previous boundary; window dieOnSave is re-published, identically.
			sameTail(t, point, tail, ref[dieOnSave-1:])
		})
	}
}

// TestResumeAcrossChunkedWorkerCounts: every worker count publishes
// identically, so a snapshot taken at one worker count must resume
// byte-identically at any other, 1 included.
func TestResumeAcrossChunkedWorkerCounts(t *testing.T) {
	records := testRecords(t, resumeRecords)
	ref := reference(t, 1, records)
	const kill = 20
	for _, pair := range [][2]int{{2, 8}, {1, 8}, {8, 1}, {2, 1}} {
		store, err := checkpoint.NewStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		runKilled(t, resumeConfig(pair[0], store, 1), records, kill)
		tail := resumeRun(t, resumeConfig(pair[1], store, 1), store, records)
		sameTail(t, fmt.Sprintf("workers %d -> %d", pair[0], pair[1]), tail, ref[kill:])
	}
}

// TestResumeRefusesMismatchedConfiguration: a snapshot from one
// configuration must not restore into another — seed, scheme, publication
// cadence or raw mode. The worker count is not part of the configuration.
func TestResumeRefusesMismatchedConfiguration(t *testing.T) {
	records := testRecords(t, resumeRecords)
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, resumeConfig(2, store, 1), records, 5)
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	mismatches := []func(*pipeline.Config){
		func(c *pipeline.Config) { c.Seed = 99 },
		func(c *pipeline.Config) { c.Scheme = core.Basic{} },
		func(c *pipeline.Config) { c.PublishEvery = 5 },
		func(c *pipeline.Config) { c.Raw = true },
	}
	for i, mutate := range mismatches {
		cfg := resumeConfig(2, store, 1)
		mutate(&cfg)
		cfg.Resume = snap
		if _, err := pipeline.New(cfg); err == nil {
			t.Errorf("mismatch %d accepted for resume", i)
		}
	}
	// The unmutated configuration is accepted, at any worker count.
	for _, workers := range []int{1, 2, 8} {
		cfg := resumeConfig(workers, store, 1)
		cfg.Resume = snap
		if _, err := pipeline.New(cfg); err != nil {
			t.Fatalf("matching configuration refused at workers=%d: %v", workers, err)
		}
	}
}

// TestResumeRefusesSequentialDrawOrder: a snapshot an older build wrote under
// workers=1 decodes with Meta.SequentialDraws set (its draw-order byte is 0).
// Resuming it in the chunked order would redraw windows already published,
// so resume fails with ErrSequentialDrawOrder at every worker count.
func TestResumeRefusesSequentialDrawOrder(t *testing.T) {
	records := testRecords(t, resumeRecords)
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, resumeConfig(1, store, 1), records, 5)
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	snap.Meta.SequentialDraws = true
	b, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatalf("decoding a sequential-order snapshot: %v", err)
	}
	for _, workers := range []int{1, 2} {
		cfg := resumeConfig(workers, store, 1)
		cfg.Resume = legacy
		_, err := pipeline.New(cfg)
		if !errors.Is(err, checkpoint.ErrSequentialDrawOrder) ||
			!strings.Contains(err.Error(), "retired sequential draw order") {
			t.Fatalf("workers=%d: resume of a sequential-order snapshot: %v, want ErrSequentialDrawOrder", workers, err)
		}
	}
}

// TestResumeRejectsShortSource: a source that cannot replay the consumed
// prefix (here: truncated) fails the resumed run loudly instead of silently
// re-mining a different stream.
func TestResumeRejectsShortSource(t *testing.T) {
	records := testRecords(t, resumeRecords)
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, resumeConfig(1, store, 1), records, 10)
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	cfg := resumeConfig(1, store, 1)
	cfg.Resume = snap
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunContext(context.Background(),
		pipeline.SliceSource(records[:int(snap.Records)/2]),
		func(pipeline.Window) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "before the resume position") {
		t.Fatalf("short replay: %v, want a resume-position error", err)
	}
}

// TestFinalWindowCheckpointOnDrain: a stream that ends between publication
// points publishes its final window AND checkpoints it — the graceful-drain
// snapshot a restarted service resumes from.
func TestFinalWindowCheckpointOnDrain(t *testing.T) {
	records := testRecords(t, resumeRecords)
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 298 // not a scheduled publication position
	cfg := resumeConfig(1, store, 5)
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var positions []int
	if _, err := p.RunContext(context.Background(), pipeline.SliceSource(records[:cut]),
		func(w pipeline.Window) error { positions = append(positions, w.Position); return nil }); err != nil {
		t.Fatal(err)
	}
	if positions[len(positions)-1] != cut {
		t.Fatalf("final window at %d, want the truncated stream end %d", positions[len(positions)-1], cut)
	}
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if snap.Records != cut {
		t.Fatalf("final checkpoint at record %d, want %d", snap.Records, cut)
	}
	// The drained service restarts against the full stream and picks up
	// exactly where it stopped.
	cfg2 := resumeConfig(1, store, 5)
	cfg2.Resume = snap
	p2, err := pipeline.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	var resumedPositions []int
	if _, err := p2.RunContext(context.Background(), pipeline.SliceSource(records),
		func(w pipeline.Window) error { resumedPositions = append(resumedPositions, w.Position); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(resumedPositions) == 0 || resumedPositions[0] <= cut {
		t.Fatalf("resumed positions %v, want all past the drain point %d", resumedPositions, cut)
	}
}
