package pipeline

// This file wires the supervised pipeline into the telemetry registry:
// one pre-registered instrument per stage signal, recorded through nil-safe
// methods so a run without telemetry (Config.Metrics == nil) pays a single
// pointer test per event. Everything recorded here is observational —
// wall-times, counts and sizes of work the pipeline was doing anyway; the
// A/B identity tests pin published bytes equal with metrics on and off.

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Pipeline metric names (see OBSERVABILITY.md for the full reference).
const (
	MetricRecords       = "butterfly_records_total"
	MetricBadRecords    = "butterfly_bad_records_total"
	MetricWindows       = "butterfly_windows_published_total"
	MetricRetries       = "butterfly_retries_total"
	MetricPanics        = "butterfly_panics_recovered_total"
	MetricWatchdogTrips = "butterfly_watchdog_trips_total"
	MetricCheckpoints   = "butterfly_checkpoints_total"
	MetricCkptSave      = "butterfly_checkpoint_save_seconds"
	MetricCkptKindSaves = "butterfly_checkpoint_delta_saves_total"
	MetricCkptChain     = "butterfly_checkpoint_delta_chain_frames"
	MetricCkptBytes     = "butterfly_checkpoint_delta_bytes"
	MetricResumeSeconds = "butterfly_resume_seconds"
	MetricStageSeconds  = "butterfly_stage_seconds"
	MetricWindowSets    = "butterfly_window_itemsets"
)

// RegisterMetrics pre-registers the pipeline's full instrument set on reg
// without running a stream — registration alone defines the namespace. The
// cross-package observability doc-sync test uses this to assemble the
// complete metric surface (pipeline + publisher + tracer + server) in one
// registry; a run with Config.Metrics = reg registers the same names
// idempotently.
func RegisterMetrics(reg *telemetry.Registry) {
	newPipeMetrics(reg)
}

// pipeMetrics holds the pipeline's registered instruments. A nil
// *pipeMetrics disables recording.
type pipeMetrics struct {
	records       *telemetry.Counter
	badRecords    *telemetry.Counter
	windows       *telemetry.Counter
	sourceRetries *telemetry.Counter
	emitRetries   *telemetry.Counter
	panics        *telemetry.Counter
	watchdogTrips *telemetry.Counter
	checkpoints   *telemetry.Counter

	fullSaves   *telemetry.Counter
	deltaSaves  *telemetry.Counter
	chainFrames *telemetry.Gauge

	// intervals holds the histogram each timed span kind feeds: one
	// butterfly_stage_seconds series per stage, and the checkpoint-save
	// latency (see runState.observe).
	intervals  map[trace.Kind]*telemetry.Histogram
	fullBytes  *telemetry.Histogram
	deltaBytes *telemetry.Histogram
	resumeDur  *telemetry.Gauge
	windowSets *telemetry.Gauge
}

// newPipeMetrics registers the pipeline instrument set on reg; nil reg
// yields nil (recording disabled). Registration is idempotent, so repeated
// runs over one registry accumulate rather than conflict.
func newPipeMetrics(reg *telemetry.Registry) *pipeMetrics {
	if reg == nil {
		return nil
	}
	intervals := map[trace.Kind]*telemetry.Histogram{
		trace.KindCheckpointSave: reg.Histogram(MetricCkptSave,
			"Checkpoint save latency (encode + fsync + rename + prune).", nil, nil),
	}
	for _, k := range []trace.Kind{trace.KindSource, trace.KindMine, trace.KindPerturb, trace.KindEmit} {
		intervals[k] = reg.Histogram(MetricStageSeconds,
			"Per-window wall time of each pipeline stage (source: inside the record source; mine: slide and snapshot compute, source excluded).",
			nil, telemetry.Labels{"stage": k.String()})
	}
	return &pipeMetrics{
		records: reg.Counter(MetricRecords,
			"Well-formed records consumed from the source.", nil),
		badRecords: reg.Counter(MetricBadRecords,
			"Malformed records skipped and quarantined against the bad-record budget.", nil),
		windows: reg.Counter(MetricWindows,
			"Sanitized windows delivered to the emit sink.", nil),
		sourceRetries: reg.Counter(MetricRetries,
			"Retry attempts after transient failures, by operation.",
			telemetry.Labels{"op": "source"}),
		emitRetries: reg.Counter(MetricRetries,
			"Retry attempts after transient failures, by operation.",
			telemetry.Labels{"op": "emit"}),
		panics: reg.Counter(MetricPanics,
			"Panics recovered from stages, sources and sinks.", nil),
		watchdogTrips: reg.Counter(MetricWatchdogTrips,
			"Per-window watchdog expirations (each fails the run).", nil),
		checkpoints: reg.Counter(MetricCheckpoints,
			"Crash-safe snapshots written.", nil),
		fullSaves: reg.Counter(MetricCkptKindSaves,
			"Checkpoint generations persisted, by kind (full snapshot vs delta frame).",
			telemetry.Labels{"kind": "full"}),
		deltaSaves: reg.Counter(MetricCkptKindSaves,
			"Checkpoint generations persisted, by kind (full snapshot vs delta frame).",
			telemetry.Labels{"kind": "delta"}),
		chainFrames: reg.Gauge(MetricCkptChain,
			"Delta frames in the current chain since its anchor full snapshot (0 right after a full save).", nil),
		intervals: intervals,
		fullBytes: reg.Histogram(MetricCkptBytes,
			"Bytes written per persisted checkpoint generation, by kind.",
			ckptByteBuckets, telemetry.Labels{"kind": "full"}),
		deltaBytes: reg.Histogram(MetricCkptBytes,
			"Bytes written per persisted checkpoint generation, by kind.",
			ckptByteBuckets, telemetry.Labels{"kind": "delta"}),
		resumeDur: reg.Gauge(MetricResumeSeconds,
			"Wall time of the last checkpoint restore, including source fast-forward.", nil),
		windowSets: reg.Gauge(MetricWindowSets,
			"Published itemsets in the most recent window.", nil),
	}
}

func (m *pipeMetrics) addRecord() {
	if m != nil {
		m.records.Inc()
	}
}

func (m *pipeMetrics) addBadRecord() {
	if m != nil {
		m.badRecords.Inc()
	}
}

func (m *pipeMetrics) addWindow(itemsets int) {
	if m != nil {
		m.windows.Inc()
		m.windowSets.Set(float64(itemsets))
	}
}

func (m *pipeMetrics) addRetry(op string) {
	if m == nil {
		return
	}
	if op == "source" {
		m.sourceRetries.Inc()
	} else {
		m.emitRetries.Inc()
	}
}

func (m *pipeMetrics) addPanic() {
	if m != nil {
		m.panics.Inc()
	}
}

func (m *pipeMetrics) addWatchdogTrip() {
	if m != nil {
		m.watchdogTrips.Inc()
	}
}

// ckptByteBuckets sizes the per-save byte histogram: deltas land in the
// hundreds-of-bytes buckets, full snapshots in the tens-of-KiB ones, so the
// split is visible at a glance.
var ckptByteBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}

func (m *pipeMetrics) addCheckpoint() {
	if m != nil {
		m.checkpoints.Inc()
	}
}

// addCheckpointSave records a persisted generation's kind, size and the
// resulting chain length.
func (m *pipeMetrics) addCheckpointSave(full bool, bytes, chainFrames int) {
	if m == nil {
		return
	}
	if full {
		m.fullSaves.Inc()
		m.fullBytes.Observe(float64(bytes))
	} else {
		m.deltaSaves.Inc()
		m.deltaBytes.Observe(float64(bytes))
	}
	m.chainFrames.Set(float64(chainFrames))
}

// observe records one measured interval into kind's histogram.
func (m *pipeMetrics) observe(kind trace.Kind, took time.Duration) {
	if m != nil {
		m.intervals[kind].Observe(took.Seconds())
	}
}

func (m *pipeMetrics) observeResume(took time.Duration) {
	if m != nil {
		m.resumeDur.Set(took.Seconds())
	}
}
