// Package pipeline runs the end-to-end Butterfly publication loop — sliding
// window mining, output perturbation, and sanitized-window delivery — as a
// supervised, staged concurrent pipeline over a potentially unbounded
// record stream.
//
// The three stages communicate over bounded channels:
//
//	source ──▶ mine ──(mining.Result)──▶ perturb ──(Window)──▶ emit
//
// The miner stage pulls records incrementally from a RecordSource, pushes
// them into the incremental Moment miner, and snapshots the frequent
// itemsets at every publication point; the perturb stage sanitizes each
// snapshot with the core.Publisher (drawing the per-itemset perturbation in
// fixed chunks, fanned out to a worker pool when Workers >= 2); the emit
// stage hands finished windows to the caller's callback in stream order.
// While window w is being perturbed or emitted, the miner is already sliding
// toward window w+1, so the stages overlap instead of alternating.
//
// Supervision (see supervise.go): every stage runs under a recover guard
// that converts panics into run errors; context cancellation propagates
// through all stages with no goroutine leaks; malformed input records are
// skipped and counted against a configurable budget; transient emit and
// source failures are retried with exponential backoff, re-delivering the
// SAME already-perturbed window so retries never consume extra randomness;
// and an optional per-window watchdog bounds how long any window may take.
// A fault-injected run that eventually succeeds therefore publishes output
// byte-identical to a fault-free run.
//
// Determinism contract (see core.Publisher.SetWorkers): output is identical
// at every worker count for a fixed seed. Stage overlap, retries, and
// skipped bad records never change published values either.
//
// Observability (see metrics.go): when Config.Metrics carries a
// telemetry.Registry, the pipeline records per-stage wall-time histograms,
// throughput/retry/quarantine/watchdog counters and checkpoint timings, and
// the publisher adds cache and rolling §V-C posture instruments.
// Instrumentation is strictly observation-only — the A/B identity test pins
// published bytes identical with telemetry on or off at every worker count.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config assembles a publication pipeline.
type Config struct {
	// WindowSize is the sliding window H.
	WindowSize int
	// Params is the Butterfly calibration; Params.MinSupport doubles as the
	// mining threshold C.
	Params core.Params
	// Scheme selects the bias setting; nil means core.Basic.
	Scheme core.Scheme
	// Seed drives the perturbation; equal seeds reproduce equal outputs.
	Seed uint64
	// ClosedOnly restricts publication to closed frequent itemsets.
	ClosedOnly bool
	// Raw publishes true supports without perturbation (audit mode).
	Raw bool
	// PublishEvery publishes every N slides after the window first fills;
	// 0 publishes once, at the end of the record stream.
	PublishEvery int
	// Workers is how many goroutines draw the publisher's perturbation
	// chunks; <= 1 draws them inline in the perturb stage. It never changes
	// published output.
	Workers int
	// Buffer is the depth of the inter-stage channels (default 4). Deeper
	// buffers let the miner run further ahead of the perturbation stage.
	Buffer int

	// MaxBadRecords is the bad-record budget: how many malformed input
	// records (surfaced by the source as *data.ParseError) may be skipped
	// and quarantined before the run fails. 0 — the default — fails fast on
	// the first malformed record; < 0 skips without limit.
	MaxBadRecords int
	// EmitRetries is the number of retry attempts for a transient emit or
	// source failure (including recovered callback panics) before the run
	// fails. 0 — the default — disables retries.
	EmitRetries int
	// EmitBackoff is the initial retry backoff, doubling per attempt up to
	// one second (default 5ms).
	EmitBackoff time.Duration
	// WindowTimeout is the per-window watchdog: a window whose perturbation
	// or emission (including retries and their backoff) takes longer fails
	// the run. 0 disables the watchdog.
	WindowTimeout time.Duration

	// CheckpointDir, when non-empty, enables crash-safe checkpointing: a
	// versioned, checksummed snapshot of the run state (source position,
	// sliding-window buffer, full publisher state) is written atomically to
	// this directory after every CheckpointEvery-th published window, and
	// always after the final window of a finite or drained stream.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval in published windows; 0
	// with a CheckpointDir means every window. Negative is rejected.
	CheckpointEvery int
	// CheckpointKeep is how many full-snapshot generations to retain
	// (checkpoint.DefaultKeep when 0); each full's delta-chain segment is
	// retained and pruned with it.
	CheckpointKeep int
	// CheckpointFullEvery is the full-snapshot compaction interval: of every
	// CheckpointFullEvery checkpoint generations, the first is a full
	// snapshot and the rest are delta frames appended to its chain
	// (checkpoint format v2) — each frame costing one fsync of an open file
	// instead of the full temp+fsync+rename+fsync protocol, and serializing
	// only the state that changed since the previous generation. <= 1 makes
	// every generation a full snapshot (the historical v1 behavior, and the
	// default). The first generation of every run is always full, so a chain
	// never crosses a process restart. Recovery is unchanged for callers:
	// Store.Latest() returns the newest full extended by its chain's valid
	// frame prefix, and resume remains byte-identical.
	CheckpointFullEvery int
	// Checkpoints overrides CheckpointDir with a pre-built store — the
	// hook tests use to install crash plans; CLI callers use CheckpointDir.
	Checkpoints *checkpoint.Store
	// Resume, when non-nil, restores the run from a snapshot before any
	// stage starts: the publisher state is restored, the sliding window is
	// rebuilt from the snapshot's buffer, and the source is fast-forwarded
	// past the Records already consumed. The source must replay the SAME
	// record sequence from its beginning (re-opened file, re-seeded
	// generator); the run then publishes the remaining windows
	// byte-identically to an uninterrupted run. The snapshot's
	// configuration fingerprint must match this Config.
	Resume *checkpoint.Snapshot

	// Metrics, when non-nil, receives the run's telemetry: per-stage
	// wall-time histograms, record/retry/quarantine/checkpoint counters,
	// and the publisher's cache and §V-C posture gauges (see
	// OBSERVABILITY.md). Telemetry is observation-only — published output
	// is byte-identical with Metrics set or nil at every worker count.
	Metrics *telemetry.Registry

	// Warnf, when non-nil, receives the warnings the run absorbs without
	// failing — today the checkpoint store's corruption-fallback and prune
	// notices when the store is built here from CheckpointDir. Callers that
	// pass a pre-built store via Checkpoints keep wiring Store.Logf
	// themselves; callers that only hand over a directory previously lost
	// these warnings entirely (they bypassed the CLI's structured
	// statusLogger). Route it into a *slog.Logger or equivalent.
	Warnf func(format string, args ...any)

	// Trace, when non-nil, records each published window into the
	// in-process flight recorder: a root span per window with child spans
	// for source/mine/perturb/emit/checkpoint.save (and resume after a
	// restart), plus the publisher's bias-optimization and
	// republication-cache spans, all nested under the window's track (see
	// internal/trace and OBSERVABILITY.md §Tracing). Like Metrics, tracing
	// is strictly observation-only — published output is byte-identical
	// with Trace set or nil at every worker count — and the span hot path
	// does not allocate after warm-up.
	Trace *trace.Tracer
}

// Fingerprint is the configuration identity a snapshot is bound to; resume
// under a different fingerprint is refused (see checkpoint.Meta). The
// multi-stream server persists it in its stream manifest and re-verifies it
// when re-adopting a stream at boot.
func (cfg Config) Fingerprint() checkpoint.Meta { return cfg.fingerprint() }

// fingerprint is the unexported implementation of Fingerprint.
func (cfg Config) fingerprint() checkpoint.Meta {
	scheme := cfg.Scheme
	if scheme == nil {
		scheme = core.Basic{}
	}
	return checkpoint.Meta{
		WindowSize:   cfg.WindowSize,
		Epsilon:      cfg.Params.Epsilon,
		Delta:        cfg.Params.Delta,
		MinSupport:   cfg.Params.MinSupport,
		VulnSupport:  cfg.Params.VulnSupport,
		Seed:         cfg.Seed,
		Scheme:       scheme.Name(),
		ClosedOnly:   cfg.ClosedOnly,
		Raw:          cfg.Raw,
		PublishEvery: cfg.PublishEvery,
	}
}

// verifyResume rejects a snapshot that cannot deterministically continue
// this configuration.
func (cfg Config) verifyResume(s *checkpoint.Snapshot) error {
	if err := s.Meta.CheckDrawOrder(); err != nil {
		return fmt.Errorf("pipeline: resume snapshot at record %d: %w", s.Records, err)
	}
	if got, want := s.Meta, cfg.fingerprint(); got != want {
		return fmt.Errorf("pipeline: resume snapshot was taken under a different configuration (%+v, running %+v)",
			got, want)
	}
	if len(s.Window) != cfg.WindowSize {
		return fmt.Errorf("pipeline: resume snapshot window holds %d records, want the window size %d",
			len(s.Window), cfg.WindowSize)
	}
	if s.Records < uint64(cfg.WindowSize) {
		return fmt.Errorf("pipeline: resume snapshot position %d precedes the first full window of %d records",
			s.Records, cfg.WindowSize)
	}
	return nil
}

// Window is one published release: the sanitized output of the sliding
// window ending at stream position Position.
type Window struct {
	// Position is N, the 1-based stream position of the window's last record.
	Position int
	// Output is the sanitized (or raw, in audit mode) mining output.
	Output *core.Output

	// ckpt, when non-nil, is the full snapshot to persist once this window
	// has been delivered. It is assembled as the window flows through the
	// stages — the mine stage contributes position and window buffer, the
	// perturb stage the publisher state — so the saved snapshot is a
	// consistent cut without ever stalling the pipeline on a barrier.
	ckpt *checkpoint.Snapshot
	// delta, when non-nil, is the incremental generation to append instead
	// (CheckpointFullEvery > 1): the same consistent cut, carrying only the
	// change set since the previous generation. At most one of ckpt/delta
	// is set.
	delta *checkpoint.Delta
	// tr is the window's flight-recorder trace, threaded through the
	// stages alongside the data and committed by the emit stage (nil when
	// tracing is off). Like ckpt, it rides the channel hand-off, so each
	// stage owns it exclusively while recording its spans.
	tr *trace.Window
}

// Pipeline is a reusable description of a publication run. Each call to Run
// or RunContext builds a fresh miner and publisher from the Config, so
// repeated runs over the same records reproduce the same outputs.
type Pipeline struct {
	cfg Config

	// stagesDone is closed once the most recent RunContext's stage
	// goroutines have all unwound; see Wait.
	stagesDone chan struct{}
}

// Wait blocks until the stage goroutines of the most recent RunContext
// call have fully unwound. A canceled RunContext returns within the
// cancellation latency of a channel select while its stages are still
// draining — in particular the emit stage may be mid checkpoint save.
// Callers about to reclaim resources the stages touch (the checkpoint
// store, the durable directory) or to start another run against the same
// store must Wait first. Returns immediately if RunContext never ran.
func (p *Pipeline) Wait() {
	if p.stagesDone != nil {
		<-p.stagesDone
	}
}

// New validates the configuration and returns a Pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Buffer < 0 {
		return nil, fmt.Errorf("pipeline: negative buffer %d", cfg.Buffer)
	}
	if cfg.PublishEvery < 0 {
		return nil, fmt.Errorf("pipeline: negative publish interval %d", cfg.PublishEvery)
	}
	if cfg.MaxBadRecords < -1 {
		return nil, fmt.Errorf("pipeline: bad-record budget %d (want -1, 0 or a positive budget)", cfg.MaxBadRecords)
	}
	if cfg.EmitRetries < 0 {
		return nil, fmt.Errorf("pipeline: negative emit retries %d", cfg.EmitRetries)
	}
	if cfg.EmitBackoff < 0 {
		return nil, fmt.Errorf("pipeline: negative emit backoff %v", cfg.EmitBackoff)
	}
	if cfg.WindowTimeout < 0 {
		return nil, fmt.Errorf("pipeline: negative window timeout %v", cfg.WindowTimeout)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("pipeline: negative checkpoint interval %d", cfg.CheckpointEvery)
	}
	if cfg.CheckpointKeep < 0 {
		return nil, fmt.Errorf("pipeline: negative checkpoint retention %d", cfg.CheckpointKeep)
	}
	if cfg.CheckpointFullEvery < 0 {
		return nil, fmt.Errorf("pipeline: negative full-snapshot interval %d", cfg.CheckpointFullEvery)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" && cfg.Checkpoints == nil {
		return nil, fmt.Errorf("pipeline: checkpoint interval %d without a checkpoint directory", cfg.CheckpointEvery)
	}
	if cfg.Resume != nil {
		if err := cfg.verifyResume(cfg.Resume); err != nil {
			return nil, err
		}
	}
	// Delegate parameter/window validation to the stream constructor so the
	// two entry points cannot drift apart.
	if _, err := cfg.newStream(); err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg}, nil
}

func (cfg Config) newStream() (*core.Stream, error) {
	return core.NewStream(core.StreamConfig{
		WindowSize: cfg.WindowSize,
		Params:     cfg.Params,
		Scheme:     cfg.Scheme,
		Seed:       cfg.Seed,
		ClosedOnly: cfg.ClosedOnly,
	})
}

// ErrShortStream matches (via errors.Is) the failure of a run whose record
// stream ended — or was drained by a DrainSource — before the sliding
// window ever filled, so callers can tell a deliberately-interrupted short
// run from a genuine stream defect.
var ErrShortStream = errors.New("pipeline: stream shorter than the window size")

// shortStreamError carries the counts; it reports true for
// errors.Is(err, ErrShortStream).
type shortStreamError struct {
	records, window int
}

func (e *shortStreamError) Error() string {
	return fmt.Sprintf("pipeline: stream ended after %d records, fewer than the window size %d",
		e.records, e.window)
}

func (e *shortStreamError) Is(target error) bool { return target == ErrShortStream }

// minedWindow is one mining snapshot in flight between the mine and perturb
// stages. The *mining.Result is a fully materialized copy of the window's
// frequent itemsets, safe to perturb while the miner slides onward.
type minedWindow struct {
	position int
	res      *mining.Result
	// ckpt is the partially-filled full snapshot when one is due after this
	// window (see Window.ckpt); delta is its incremental counterpart (see
	// Window.delta). At most one is set.
	ckpt  *checkpoint.Snapshot
	delta *checkpoint.Delta
	// tr is the window's flight-recorder trace (see Window.tr).
	tr *trace.Window
}

// RunContext streams records from src through the supervised pipeline and
// calls emit once per published window, in stream order. It returns when
// the source is exhausted (after publishing the final window), when ctx is
// canceled, or on the first unrecovered stage error — whichever comes
// first. The returned Report is a best-effort summary that is valid even
// on error, so interrupted runs can print partial results.
//
// Cancellation returns promptly: stage goroutines blocked on channels
// unwind immediately, and goroutines inside user callbacks unwind as soon
// as the callback returns; none of them are leaked past that.
func (p *Pipeline) RunContext(ctx context.Context, src RecordSource, emit func(Window) error) (*Report, error) {
	stream, err := p.cfg.newStream()
	if err != nil {
		return nil, err
	}
	stream.Publisher().SetWorkers(p.cfg.Workers)
	if p.cfg.Metrics != nil {
		stream.Publisher().SetMetrics(p.cfg.Metrics)
	}

	run := newRunState(ctx, p.cfg)
	defer run.cancel()
	run.ckpts = p.cfg.Checkpoints
	if run.ckpts == nil && p.cfg.CheckpointDir != "" {
		run.ckpts, err = checkpoint.NewStore(p.cfg.CheckpointDir, p.cfg.CheckpointKeep)
		if err != nil {
			return nil, err
		}
		// A store built here would otherwise swallow its corruption-fallback
		// and prune warnings; hand them to the caller's logger.
		run.ckpts.Logf = p.cfg.Warnf
		// The store is ours: release the open delta-chain segment descriptor
		// when the run ends. (A caller-provided store stays the caller's to
		// close.)
		defer run.ckpts.Close()
	}
	run.ckptEvery = p.cfg.CheckpointEvery
	if run.ckptEvery <= 0 {
		run.ckptEvery = 1
	}
	run.fullEvery = p.cfg.CheckpointFullEvery
	if run.fullEvery < 1 {
		run.fullEvery = 1
	}
	if rs := p.cfg.Resume; rs != nil {
		// Restore before any stage starts: rebuild the miner from the
		// snapshot's window buffer, restore the publisher, and let the mine
		// loop fast-forward the source past the consumed prefix. The resume
		// gauge spans from here to the end of that fast-forward.
		run.resumeStart = time.Now()
		if err := p.cfg.verifyResume(rs); err != nil {
			return nil, err
		}
		for _, rec := range rs.Window {
			stream.Push(rec)
		}
		if err := stream.Publisher().Restore(&rs.Publisher); err != nil {
			return nil, err
		}
		run.resume = rs
	}
	if run.ckpts != nil && run.fullEvery > 1 {
		// Delta generations serialize only the cache entries touched since
		// the previous generation; the publisher tracks them as it goes, and
		// the mine stage tracks the records appended to the window.
		stream.Publisher().SetDeltaTracking(true)
		run.trackAppend = true
	}
	buffer := p.cfg.Buffer
	if buffer == 0 {
		buffer = 4
	}
	mined := make(chan minedWindow, buffer)
	outs := make(chan Window, buffer)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // Stage 1: ingest records, slide, snapshot at publication points.
		defer wg.Done()
		defer close(mined)
		defer run.recoverStage("mine")
		run.mineLoop(stream, src, mined)
	}()
	go func() { // Stage 2: perturb each snapshot in arrival (= stream) order.
		defer wg.Done()
		defer close(outs)
		defer run.recoverStage("perturb")
		run.perturbLoop(stream, p.cfg, mined, outs)
	}()
	go func() { // Stage 3: deliver windows in order, with retries.
		defer wg.Done()
		defer run.recoverStage("emit")
		run.emitLoop(outs, emit)
	}()

	done := make(chan struct{})
	p.stagesDone = done
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-run.ctx.Done():
		// Canceled (externally or by the watchdog): return within the
		// cancellation latency of a channel select. Stages unwind on their
		// own; a stage stuck inside a user callback finishes unwinding when
		// that callback returns, and the Report snapshot below is safe to
		// take concurrently.
	}
	return run.snapshot(), run.firstErr()
}

// mineLoop is stage 1: pull records from the source (absorbing bad records
// and transient faults), slide the window, and snapshot at every
// publication point. The final window of a finite stream is published even
// when the stream ends between publication points, matching the historical
// at-end release of the materialized path.
//
// On resume, the loop fast-forwards: the first resume.Records well-formed
// records are pulled and discarded — their effect already lives in the
// restored window buffer — which replays the exact bad-record and
// vocabulary-interning history of the pre-crash run, so the Report counts
// and every interned item id match the uninterrupted run.
func (r *runState) mineLoop(stream *core.Stream, src RecordSource, mined chan<- minedWindow) {
	pos := 0               // stream position of the last well-formed record
	skip := 0              // records already absorbed into the restored window
	lastPub := 0           // position of the last snapshot handed to perturb
	published := uint64(0) // publication index, drives the checkpoint schedule
	if rs := r.resume; rs != nil {
		skip = int(rs.Records)
		lastPub = skip
		published = rs.Published
	}
	// The current window's ingest, timed on this goroutine: it opens at the
	// first source read after the previous hand-off (a zero start means not
	// yet opened), srcDur sums the time inside the source, and the rest of
	// the window's interval — slide and snapshot — is the mine share.
	var (
		start      time.Time
		tw         *trace.Window
		srcDur     time.Duration
		srcRecords int64 // well-formed records ingested this window
	)
	// seal publishes the window ending at pos: it materializes the snapshot,
	// records the source and mine shares of the window's interval (which
	// ends BEFORE the possibly backpressured hand-off to perturb, so neither
	// share counts downstream congestion), and hands the snapshot on. It
	// reports false when the run was canceled.
	seal := func(final bool) bool {
		published++
		m := r.newMined(stream, pos, published, final)
		end := time.Now()
		tw.SetID(uint64(pos))
		tw.Attr(trace.AttrWindow, int64(pos))
		tw.Attr(trace.AttrRecords, srcRecords)
		if bad := r.badCount(); bad > 0 {
			tw.Attr(trace.AttrBadRecords, int64(bad))
		}
		r.observe(trace.KindSource, tw, start, srcDur).Attr(trace.AttrRecords, srcRecords)
		r.observe(trace.KindMine, tw, start.Add(srcDur), end.Sub(start)-srcDur).
			Attr(trace.AttrItemsets, int64(m.res.Len()))
		m.tr = tw
		start, tw, srcDur, srcRecords = time.Time{}, nil, 0, 0
		return sendOrDone(r, mined, m)
	}
	for {
		if r.ctx.Err() != nil {
			return
		}
		t0 := time.Now()
		if start.IsZero() {
			start = t0
			tw = r.tracer.StartRoot(trace.KindWindow, start)
		}
		rec, err := r.nextRecord(src)
		t1 := time.Now()
		srcDur += t1.Sub(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			r.fail(err)
			return
		}
		pos++
		r.addRecord()
		srcRecords++
		if pos <= skip {
			if pos == skip {
				// Fast-forward complete: the resume gauge and the first
				// window's resume span cover restore plus the replayed prefix.
				d := t1.Sub(r.resumeStart)
				r.metrics.observeResume(d)
				tw.Add(trace.KindResume, r.resumeStart, d)
			}
			continue
		}
		stream.Push(rec)
		if r.trackAppend {
			r.pushAppended(rec)
		}
		if !stream.Ready() {
			continue
		}
		// The window fills exactly at the WindowSize-th well-formed record,
		// so the slide count is derivable from the position — which keeps it
		// continuous across a resume.
		sinceFull := pos - r.cfg.WindowSize + 1
		if !(r.cfg.PublishEvery > 0 && (sinceFull-1)%r.cfg.PublishEvery == 0) {
			continue
		}
		if !seal(false) {
			return
		}
		lastPub = pos
	}
	if r.ctx.Err() != nil {
		return
	}
	if pos < skip {
		r.fail(fmt.Errorf("pipeline: source ended after %d records, before the resume position %d — "+
			"resume needs a source that replays the original stream", pos, skip))
		return
	}
	if !stream.Ready() {
		r.fail(&shortStreamError{records: pos, window: r.cfg.WindowSize})
		return
	}
	if lastPub != pos {
		// The final window always checkpoints (when checkpointing is on):
		// this is the graceful-drain snapshot a restarted service resumes
		// from.
		seal(true)
	}
}

// observe records one measured interval of a window: into kind's histogram
// (butterfly_stage_seconds{stage}, or butterfly_checkpoint_save_seconds for
// checkpoint.save) and as a span on the window's trace. Both sinks are
// nil-safe, and both see the same reading, so /metrics and the flight
// recorder cannot disagree about a stage.
func (r *runState) observe(kind trace.Kind, tw *trace.Window, t0 time.Time, d time.Duration) trace.SpanRef {
	r.metrics.observe(kind, d)
	return tw.Add(kind, t0, d)
}

// newMined packages one mining snapshot, attaching the partially-filled
// checkpoint when one is due: every ckptEvery-th publication, and always
// the final one. The window buffer is copied here, in the only stage that
// owns the miner.
//
// The full/delta schedule also lives here: the first generation of a run is
// always a full snapshot (a chain never crosses a restart), then every
// fullEvery-th is full and the rest are delta frames chained off it. A delta
// carries the records appended since the previous generation instead of the
// whole window buffer — when more than a window's worth arrived, only the
// last WindowSize survive, because the earlier ones have already slid out.
func (r *runState) newMined(stream *core.Stream, pos int, published uint64, final bool) minedWindow {
	// Snapshot into a recycled buffer from the freelist when one is ready
	// (see runState.results); identical content either way.
	var recycled *mining.Result
	if !r.cfg.ClosedOnly {
		select {
		case recycled = <-r.results:
		default:
		}
	}
	m := minedWindow{position: pos, res: stream.MineInto(recycled)}
	if r.ckpts == nil {
		return m
	}
	if !final && published%uint64(r.ckptEvery) != 0 {
		return m
	}
	r.ckptSeq++
	if r.fullEvery <= 1 || (r.ckptSeq-1)%uint64(r.fullEvery) == 0 {
		m.ckpt = &checkpoint.Snapshot{
			Meta:       r.cfg.fingerprint(),
			Records:    uint64(pos),
			BadRecords: uint64(r.badCount()),
			Published:  published,
			Window:     stream.WindowRecords(),
		}
	} else {
		app := r.appended
		if len(app) > r.cfg.WindowSize {
			app = app[len(app)-r.cfg.WindowSize:]
		}
		m.delta = &checkpoint.Delta{
			ParentRecords: r.lastCkptRecords,
			Records:       uint64(pos),
			BadRecords:    uint64(r.badCount()),
			Published:     published,
			Appended:      append([]itemset.Itemset(nil), app...),
		}
	}
	r.lastCkptRecords = uint64(pos)
	r.appended = r.appended[:0]
	return m
}

// pushAppended records one window-bound record for the next delta
// generation. The buffer compacts to the last WindowSize records once it
// doubles — anything older has slid out of the window, so no delta will
// ever serialize it.
func (r *runState) pushAppended(rec itemset.Itemset) {
	if w := r.cfg.WindowSize; len(r.appended) >= 2*w {
		n := copy(r.appended, r.appended[len(r.appended)-w:])
		r.appended = r.appended[:n]
	}
	r.appended = append(r.appended, rec)
}

// nextRecord pulls one record from the source under supervision: recovered
// source panics and transient errors are retried with backoff (sharing the
// EmitRetries budget, counted per record), malformed records are skipped
// against the bad-record budget, and anything else is fatal. The end of the
// stream is io.EOF, unwrapped.
func (r *runState) nextRecord(src RecordSource) (itemset.Itemset, error) {
	var (
		rec  itemset.Itemset
		stop error // io.EOF or the exhausted bad-record budget: no retry, no wrapping
	)
	err := r.withRetries("source", "record source", nil, time.Time{}, func() error {
		for {
			var err error
			if rec, err = src.Next(); err == nil {
				return nil
			}
			if errors.Is(err, io.EOF) {
				stop = io.EOF
				return nil
			}
			var pe *data.ParseError
			if !errors.As(err, &pe) {
				return err
			}
			if !r.recordBad(BadRecord{Line: pe.Line, Token: pe.Token, Err: pe.Err}) {
				stop = fmt.Errorf("pipeline: bad-record budget of %d exhausted (%d malformed records; last: %w)",
					r.cfg.MaxBadRecords, r.badCount(), pe)
				return nil
			}
		}
	})
	if stop != nil {
		return itemset.Itemset{}, stop
	}
	return rec, err
}

// perturbLoop is stage 2: sanitize each snapshot. Publish is retry-safe on
// error (core rolls its state back), but perturbation failures here are
// internal — not sink flakiness — so they fail the run; the watchdog bounds
// each window's perturbation time.
func (r *runState) perturbLoop(stream *core.Stream, cfg Config, mined <-chan minedWindow, outs chan<- Window) {
	for m := range mined {
		if r.ctx.Err() != nil {
			return
		}
		var out *core.Output
		// Direct the publisher's bias-opt and cache child spans into this
		// window's trace (a nil m.tr detaches; observation-only either way).
		stream.Publisher().SetTrace(m.tr)
		t0 := time.Now()
		err := r.watchdog("perturbation", m.position, func() error {
			if cfg.Raw {
				out = core.NewRawOutput(m.res, cfg.WindowSize)
				return nil
			}
			var e error
			out, e = stream.Publisher().Publish(m.res, cfg.WindowSize)
			return e
		})
		t1 := time.Now()
		r.observe(trace.KindPerturb, m.tr, t0, t1.Sub(t0))
		if err != nil {
			// The failed window still lands in the flight recorder — the
			// abort-path trace dump should show what was in flight.
			r.tracer.Commit(m.tr, t1)
			r.fail(fmt.Errorf("pipeline: perturbing window at position %d: %w", m.position, err))
			return
		}
		if m.ckpt != nil {
			// Capture the publisher immediately after this window's
			// perturbation — the consistent cut the checkpoint needs. In raw
			// mode the publisher is untouched and the snapshot simply
			// records its initial state. (With delta tracking on, this also
			// resets the change-set baseline: the next delta is relative to
			// this cut.)
			m.ckpt.Publisher = *stream.Publisher().Snapshot()
		} else if m.delta != nil {
			// The incremental counterpart: drain the cache entries touched
			// since the previous generation — O(changed), not O(cache).
			m.delta.Publisher = *stream.Publisher().SnapshotDelta()
		}
		// The sanitized output is assembled; nothing downstream references
		// the mining snapshot, so its buffer flows back to the mine stage.
		if !r.cfg.ClosedOnly {
			select {
			case r.results <- m.res:
			default:
			}
		}
		if !sendOrDone(r, outs, Window{Position: m.position, Output: out, ckpt: m.ckpt, delta: m.delta, tr: m.tr}) {
			return
		}
	}
}

// emitLoop is stage 3: deliver windows in order. Each delivery is wrapped
// in the retry/backoff policy — the SAME perturbed window is re-emitted on
// transient failure, preserving determinism — and the watchdog bounds the
// whole per-window delivery including backoff.
func (r *runState) emitLoop(outs <-chan Window, emit func(Window) error) {
	for w := range outs {
		if r.ctx.Err() != nil {
			continue // drain so the perturb stage never blocks on us
		}
		w := w
		t0 := time.Now()
		var attempts int64
		err := r.watchdog("emission", w.Position, func() error {
			return r.withRetries("emit", fmt.Sprintf("emitting window at position %d", w.Position), w.tr, t0,
				func() error { attempts++; return emit(w) })
		})
		end := time.Now()
		sp := r.observe(trace.KindEmit, w.tr, t0, end.Sub(t0))
		if attempts > 0 {
			sp.Attr(trace.AttrRetries, attempts-1)
		}
		if err != nil {
			r.tracer.Commit(w.tr, end)
			r.fail(err)
			continue
		}
		r.addPublished()
		r.metrics.addWindow(w.Output.Len())
		if w.ckpt != nil || w.delta != nil {
			// Persist only after the window is delivered: a crash between
			// emit and save merely re-emits from the previous generation,
			// and the republication cache re-serves identical values.
			full := w.ckpt != nil
			c0 := end
			var saveErr error
			if full {
				saveErr = r.ckpts.Save(w.ckpt)
			} else {
				saveErr = r.ckpts.AppendDelta(w.delta)
			}
			end = time.Now()
			r.observe(trace.KindCheckpointSave, w.tr, c0, end.Sub(c0))
			if saveErr != nil {
				r.tracer.Commit(w.tr, end)
				r.fail(fmt.Errorf("pipeline: checkpointing window at position %d: %w", w.Position, saveErr))
				continue
			}
			r.addCheckpoint()
			r.metrics.addCheckpointSave(full, r.ckpts.LastSaveBytes(), r.ckpts.ChainFrames())
		}
		// The window is fully delivered (and checkpointed when due): commit
		// its trace to the ring so snapshots and exemplars see it.
		r.tracer.Commit(w.tr, end)
	}
}
