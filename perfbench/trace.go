package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/itemset"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// traceHooks records spans around the public seams of a live run: each
// stream's RecordSource.Next (Options.WrapSource), the sink (WrapSink
// timing lives in capture), Server.Recover's report, StreamStatus polling
// and the load generator's request counters. Spans are aggregated in
// memory and read after the run. A nil *traceHooks is the untraced run:
// every method is a no-op that leaves the seams unwrapped.
type traceHooks struct {
	mu         sync.Mutex
	sourceWait time.Duration // summed time inside RecordSource.Next
	emit       sample        // ms inside the wrapped sink's downstream emit
	recover    []server.RecoverReport
	queueLen   sample
	requests   int64
	refused429 int64
	refused503 int64
	sources    []*timedRecordSource
}

// timedRecordSource is a RecordSource span recorder.
type timedRecordSource struct {
	src  pipeline.RecordSource
	h    *traceHooks
	wait time.Duration
	n    int64
}

func (t *timedRecordSource) Next() (itemset.Itemset, error) {
	t0 := time.Now()
	rec, err := t.src.Next()
	d := time.Since(t0)
	t.wait += d
	t.n++
	if t.n%1024 == 0 {
		t.flush()
	}
	return rec, err
}

// flush moves the source's private tally into the shared one; the source
// itself is only ever called from its pipeline's mine stage.
func (t *timedRecordSource) flush() {
	t.h.mu.Lock()
	t.h.sourceWait += t.wait
	t.h.mu.Unlock()
	t.wait, t.n = 0, 0
}

// wrapSource returns the server's WrapSource seam, or nil when untraced.
func (h *traceHooks) wrapSource() func(string, pipeline.RecordSource) pipeline.RecordSource {
	if h == nil {
		return nil
	}
	return func(_ string, src pipeline.RecordSource) pipeline.RecordSource {
		t := &timedRecordSource{src: src, h: h}
		h.track(t)
		return t
	}
}

// track remembers a source so its last partial tally is flushed at the end.
func (h *traceHooks) track(t *timedRecordSource) {
	h.mu.Lock()
	h.sources = append(h.sources, t)
	h.mu.Unlock()
}

// flushSources folds every source's last partial tally; call it once the
// runs that used them have ended.
func (h *traceHooks) flushSources() {
	h.mu.Lock()
	srcs := h.sources
	h.sources = nil
	h.mu.Unlock()
	for _, t := range srcs {
		t.flush()
	}
}

// wrapDenseSource wraps the library workload's source (untraced: as is).
func (h *traceHooks) wrapDenseSource(src pipeline.RecordSource) pipeline.RecordSource {
	if h == nil {
		return src
	}
	t := &timedRecordSource{src: src, h: h}
	h.track(t)
	return t
}

// wrapEmit times the library workload's sink (untraced: as is).
func (h *traceHooks) wrapEmit(emit func(pipeline.Window) error) func(pipeline.Window) error {
	if h == nil {
		return emit
	}
	return func(w pipeline.Window) error {
		t0 := time.Now()
		err := emit(w)
		h.observeEmit(time.Since(t0))
		return err
	}
}

func (h *traceHooks) observeEmit(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.emit.add(ms(d))
	h.mu.Unlock()
}

// recovered keeps one Server.Recover report.
func (h *traceHooks) recovered(rep server.RecoverReport) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.recover = append(h.recover, rep)
	h.mu.Unlock()
}

// pollStatus samples each stream's queue length from StreamStatus every
// 10ms until the returned stop function is called.
func (h *traceHooks) pollStatus(srv *server.Server, ids []string) func() {
	if h == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-stop:
				return
			}
			for _, id := range ids {
				if st, err := srv.Status(id); err == nil {
					h.mu.Lock()
					h.queueLen.add(float64(st.QueueLen))
					h.mu.Unlock()
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}

// flow keeps the load generator's request counters.
func (h *traceHooks) flow(f *flow) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.requests += f.requests.Load()
	h.refused429 += f.refused429.Load()
	h.refused503 += f.refused503.Load()
	h.mu.Unlock()
}

// runTraced is --trace 1: an untraced run (the overhead baseline and the
// Go runtime counters), a traced run with spans at every public seam, and
// a serial layer replay of the untraced run's records that must publish
// the same bytes. It returns the untraced run's result (its verdict gates
// the exit code) and the per-layer metrics.
func runTraced(e *env, runW func(*env) (*result, error)) (*result, []metric, error) {
	base, err := runW(e)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced run: %w", err)
	}
	h := &traceHooks{}
	te := *e
	te.hooks = h
	tracedRes, err := runW(&te)
	if err != nil {
		return nil, nil, fmt.Errorf("traced run: %w", err)
	}
	h.flushSources()
	// The traced run's output is checked too; its operations count.
	base.verdict.problems = append(base.verdict.problems, tracedRes.verdict.problems...)
	base.verdict.attempted += tracedRes.verdict.attempted
	base.verdict.failed += tracedRes.verdict.failed

	rep, err := replay(e, base)
	if err != nil {
		return nil, nil, fmt.Errorf("layer replay: %w", err)
	}
	if rep.digest != base.verdict.digest {
		base.verdict.problems = append(base.verdict.problems, fmt.Sprintf(
			"layer replay digest %016x differs from the untraced run's %016x", rep.digest, base.verdict.digest))
	}
	_, tails := endToEnd(base)
	return base, append(tails, layerMetrics(e, base, tracedRes, h, rep)...), nil
}

// totals pools a run's sub-runs: summed counts, times and runtime costs,
// and the generator-lateness samples.
type totals struct {
	records int
	elapsed time.Duration
	late    sample
	rt      runStats
}

func (r *result) totals() totals {
	var t totals
	for _, s := range r.subs {
		t.records += s.records
		t.elapsed += s.elapsed
		t.late.xs = append(t.late.xs, s.late.xs...)
		t.rt.cpu += s.rt.cpu
		t.rt.allocBytes += s.rt.allocBytes
		t.rt.gcCycles += s.rt.gcCycles
		t.rt.gcPause += s.rt.gcPause
	}
	return t
}

// layerMetrics assembles the per-layer report. Layers a workload bypasses
// report 0.
func layerMetrics(e *env, baseRes, tracedRes *result, h *traceHooks, rep *replayStats) []metric {
	base, traced := baseRes.totals(), tracedRes.totals()
	st := base.rt
	// Overhead: traced ÷ untraced cost per published record — wall time on
	// the closed loops, measured-phase CPU time on the open loop, whose wall
	// time is fixed by its schedule.
	overhead := (traced.elapsed.Seconds() / float64(traced.records)) / (base.elapsed.Seconds() / float64(base.records))
	if e.workload == "service-paced" {
		overhead = traced.rt.cpu.Seconds() / st.cpu.Seconds()
	}
	late, _ := traced.late.percentile(0.99)
	late = zeroIfEmpty(late, traced.late.n())
	var rc recoverSummary
	rc.fold(h.recover)
	emitP99, _ := h.emit.percentile(0.99)
	qP99, _ := h.queueLen.percentile(0.99)
	streams := 1.0
	if e.workload != "publish-dense" {
		streams = 2
	}
	perRecord := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	perWindow := func(d time.Duration) float64 {
		if rep.windows == 0 {
			return 0
		}
		return float64(d.Microseconds()) / float64(rep.windows)
	}
	syncP50, _ := rep.sync.percentile(0.50)
	syncP99, _ := rep.sync.percentile(0.99)
	return []metric{
		{"bench.gen_late_p99_ms", late, "ms", traced.late.n()},
		{"bench.trace_overhead", overhead, "ratio", 0},
		{"server.requests", float64(h.requests), "count", 0},
		{"server.refused_429", float64(h.refused429), "count", 0},
		{"server.refused_503", float64(h.refused503), "count", 0},
		{"server.recover_ms", rc.took, "ms", len(h.recover)},
		{"server.recover.wal_open_ms", rc.walOpen, "ms", len(h.recover)},
		{"server.recover.wal_replay_ms", rc.walReplay, "ms", len(h.recover)},
		{"server.recover.chain_apply_ms", rc.chainApply, "ms", len(h.recover)},
		{"server.recover.replayed_lines", rc.replayed, "count", len(h.recover)},
		{"data.parse_ns_per_line", perRecord(rep.parse, rep.lines), "ns", 0},
		{"wal.append_ns_per_record", perRecord(rep.walAppend, rep.walRecords), "ns", 0},
		{"wal.sync_p50_ms", zeroIfEmpty(syncP50, rep.sync.n()), "ms", rep.sync.n()},
		{"wal.sync_p99_ms", zeroIfEmpty(syncP99, rep.sync.n()), "ms", rep.sync.n()},
		{"wal.bytes_per_record", ratio(float64(rep.walBytes), float64(rep.walRecords)), "B", 0},
		{"pipeline.source_wait_s", h.sourceWait.Seconds(), "s", 0},
		{"pipeline.source_share", h.sourceWait.Seconds() / (streams * traced.elapsed.Seconds()), "ratio", 0},
		{"pipeline.emit_p99_ms", zeroIfEmpty(emitP99, h.emit.n()), "ms", h.emit.n()},
		{"pipeline.queue_len_p99", zeroIfEmpty(qP99, h.queueLen.n()), "count", h.queueLen.n()},
		{"moment.push_ns_per_record", perRecord(rep.push, rep.records), "ns", 0},
		{"moment.snapshot_us_per_window", perWindow(rep.snapshot), "us", 0},
		{"moment.itemsets_per_window", ratio(float64(rep.itemsets), float64(rep.windows)), "count", 0},
		{"fec.classes_per_window", ratio(float64(rep.classes), float64(rep.windows)), "count", 0},
		{"fec.members_per_class", ratio(float64(rep.itemsets), float64(rep.classes)), "count", 0},
		{"core.publish_us_per_window", perWindow(rep.publish), "us", 0},
		{"core.bias_opt_us_per_window", perWindow(rep.biasOpt), "us", 0},
		{"core.perturb_us_per_window", perWindow(rep.perturb), "us", 0},
		{"core.bias_reuse_ratio", ratio(float64(rep.biasReuses), float64(rep.windows)), "ratio", 0},
		{"core.cache_entries", ratio(float64(rep.cacheEntries), float64(rep.windows)), "count", 0},
		{"checkpoint.save_full_ms", ratio(ms(rep.saveFull), float64(rep.fulls)), "ms", 0},
		{"checkpoint.append_delta_us", ratio(float64(rep.appendDelta.Microseconds()), float64(rep.deltas)), "us", 0},
		{"checkpoint.bytes_per_generation", ratio(float64(rep.ckptBytes), float64(rep.fulls+rep.deltas)), "B", 0},
		{"checkpoint.latest_ms", rep.latest, "ms", 0},
		{"go.alloc_bytes_per_record", ratio(float64(st.allocBytes), float64(base.records)), "B", 0},
		{"go.gc_cycles", float64(st.gcCycles), "count", 0},
		{"go.gc_pause_ms", ms(st.gcPause), "ms", 0},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroIfEmpty(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v
}

// recoverSummary is the median of each recovery phase over the boot
// trials, in milliseconds.
type recoverSummary struct {
	took, walOpen, walReplay, chainApply, replayed float64
}

func (r *recoverSummary) fold(reps []server.RecoverReport) {
	if len(reps) == 0 {
		return
	}
	var took, open, replay, chain, lines sample
	for _, rep := range reps {
		took.add(ms(rep.Took))
		open.add(ms(rep.WALOpen))
		replay.add(ms(rep.WALReplay))
		chain.add(ms(rep.ChainApply))
		lines.add(float64(rep.Replayed))
	}
	*r = recoverSummary{took.median(), open.median(), replay.median(), chain.median(), lines.median()}
}
