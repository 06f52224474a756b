package server

// Server-layer telemetry: stream lifecycle gauges, admission/backpressure
// rejection counters, restart/quarantine counters, and per-stream labeled
// throughput counters. Like the pipeline's instruments these are strictly
// observational — the differential suite pins server-hosted output
// byte-identical to standalone runs with metrics on.

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Server metric names (see OBSERVABILITY.md for the full reference).
const (
	MetricStreams          = "butterfly_server_streams"
	MetricIngestRejections = "butterfly_server_ingest_rejections_total"
	MetricInflightBytes    = "butterfly_server_inflight_bytes"
	MetricRestarts         = "butterfly_server_restarts_total"
	MetricQuarantines      = "butterfly_server_quarantines_total"
	MetricStreamRecords    = "butterfly_server_stream_records_total"
	MetricStreamWindows    = "butterfly_server_stream_windows_total"
	MetricDrainSeconds     = "butterfly_server_drain_seconds"
	MetricIngestSeconds    = "butterfly_server_ingest_seconds"
	MetricWALAppendSeconds = "butterfly_server_wal_append_seconds"
	MetricQueueAge         = "butterfly_server_queue_age_seconds"
	MetricQueueDepth       = "butterfly_server_queue_depth"
	MetricE2ESeconds       = "butterfly_server_e2e_seconds"
	MetricE2ESlowest       = "butterfly_server_e2e_slowest_seconds"
	MetricRecoverySeconds  = "butterfly_recovery_seconds"
	MetricRecoveryStreams  = "butterfly_recovery_streams"
	MetricRecoveryReplay   = "butterfly_recovery_replay_lines_per_second"
	MetricBuildInfo        = "butterfly_build_info"
	MetricCheckpointAge    = "butterfly_checkpoint_last_save_age_seconds"
)

// Ingest rejection reasons (the MetricIngestRejections label values).
const (
	rejectBackpressure = "backpressure"
	rejectOverload     = "overload"
	rejectClosed       = "closed"
	rejectPaused       = "paused"
	rejectQuarantined  = "quarantined"
)

// Quarantine reasons (the MetricQuarantines label values).
const (
	quarBreaker           = "breaker"
	quarRestartImpossible = "restart_impossible"
	quarPanic             = "panic"
	quarConfig            = "config"
	quarAdoption          = "adoption"
)

// Boot-recovery phases (the MetricRecoverySeconds label values).
const (
	recPhaseManifestLoad = "manifest_load"
	recPhaseOrphanSweep  = "orphan_sweep"
	recPhaseAdopt        = "adopt"
	recPhaseChainApply   = "chain_apply"
	recPhaseWALOpen      = "wal_open"
	recPhaseWALReplay    = "wal_replay"
	recPhaseTotal        = "total"
)

// Boot-recovery stream outcomes (the MetricRecoveryStreams label values).
const (
	recOutcomeAdopted = "adopted"
	recOutcomeParked  = "parked"
)

// e2eBuckets extends the default duration ladder: a record's accepted-line
// → published-window latency is dominated by how long its window takes to
// fill, which on a slow stream is minutes, not the sub-second stage times
// DefBuckets was sized for.
var e2eBuckets = append(append([]float64(nil), telemetry.DefBuckets...), 30, 60, 300, 1800)

// RegisterMetrics pre-registers the server's instrument namespace on reg
// (with placeholder label values for the labeled families) so the
// observability doc-sync test can assemble the full metric surface without
// standing up a server.
func RegisterMetrics(reg *telemetry.Registry) {
	m := newServerMetrics(reg)
	m.rejection(rejectBackpressure)
	m.quarantineCounter(quarBreaker)
	m.streamCounters("example")
	m.streamQueueDepth("example", func() float64 { return 0 })
	m.streamCheckpointAge("example", func() float64 { return 0 })
	m.recoveryPhase(recPhaseTotal)
	m.recoveryStreams(recOutcomeAdopted)
	wal.RegisterMetrics(reg)
}

// serverMetrics holds the registered instruments; a nil *serverMetrics
// disables recording (Options.Registry == nil).
type serverMetrics struct {
	reg        *telemetry.Registry
	byState    map[string]*telemetry.Gauge
	inflight   *telemetry.Gauge
	restarts   *telemetry.Counter
	drainDur   *telemetry.Gauge
	ingestDur  *telemetry.Histogram
	walAppend  *telemetry.Histogram
	queueAge   *telemetry.Histogram
	e2eDur     *telemetry.Histogram
	e2eSlowest *telemetry.Gauge
	replayRate *telemetry.Gauge

	// Slowest end-to-end exemplar: the stream/window pair behind the
	// MetricE2ESlowest gauge, surfaced by /healthz so the gauge is always
	// inspectable. Guarded by e2eMu (cold path: updated only on new maxima).
	e2eMu       sync.Mutex
	e2eMax      float64
	e2eExStream string
	e2eExWindow uint64
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	byState := map[string]*telemetry.Gauge{}
	for _, state := range []string{StateRunning, StatePaused, StateQuarantined, StateDone, StateFailed} {
		byState[state] = reg.Gauge(MetricStreams,
			"Hosted streams by lifecycle state.", telemetry.Labels{"state": state})
	}
	reg.Gauge(MetricBuildInfo,
		"Always 1; the labels identify the binary (go version, GOMAXPROCS, trace-ring size).",
		telemetry.Labels{
			"go_version": runtime.Version(),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"trace_ring": strconv.Itoa(trace.DefaultWindows),
		}).Set(1)
	return &serverMetrics{
		reg:     reg,
		byState: byState,
		inflight: reg.Gauge(MetricInflightBytes,
			"Approximate bytes queued across every stream's ingest queue.", nil),
		restarts: reg.Counter(MetricRestarts,
			"In-process stream restarts after a failed run (checkpoint + replay).", nil),
		drainDur: reg.Gauge(MetricDrainSeconds,
			"Wall time of the last graceful drain across all streams.", nil),
		ingestDur: reg.Histogram(MetricIngestSeconds,
			"Wall time of one accepted ingest request (parse + WAL append + group fsync + enqueue).",
			nil, nil),
		walAppend: reg.Histogram(MetricWALAppendSeconds,
			"Time encoding and buffering one accepted ingest request's records into the WAL (pre-sync), per request.",
			nil, nil),
		queueAge: reg.Histogram(MetricQueueAge,
			"Age of a record at dequeue: time spent waiting in the ingest queue before the pipeline consumed it.",
			nil, nil),
		e2eDur: reg.Histogram(MetricE2ESeconds,
			"End-to-end record latency: accepted ingest line to its window's sanitized publication.",
			e2eBuckets, nil),
		e2eSlowest: reg.Gauge(MetricE2ESlowest,
			"Slowest end-to-end record-to-publish latency seen so far (exemplar stream/window on /healthz).",
			nil),
		replayRate: reg.Gauge(MetricRecoveryReplay,
			"WAL replay throughput of the last boot recovery, in accepted lines per second.", nil),
	}
}

// moveState shifts one stream between lifecycle-state gauges; prev == ""
// counts a newly created stream.
func (m *serverMetrics) moveState(prev, next string) {
	if m == nil {
		return
	}
	if g := m.byState[prev]; g != nil {
		g.Add(-1)
	}
	if g := m.byState[next]; g != nil {
		g.Add(1)
	}
}

// rejection returns the labeled ingest-rejection counter for a reason
// (never nil; unregistered when metrics are off).
func (m *serverMetrics) rejection(reason string) *telemetry.Counter {
	if m == nil {
		return &telemetry.Counter{}
	}
	return m.reg.Counter(MetricIngestRejections,
		"Ingest requests rejected, by reason.", telemetry.Labels{"reason": reason})
}

// streamCounters returns the per-stream labeled throughput counters
// (never nil; unregistered when metrics are off).
func (m *serverMetrics) streamCounters(id string) (records, windows *telemetry.Counter) {
	if m == nil {
		return &telemetry.Counter{}, &telemetry.Counter{}
	}
	records = m.reg.Counter(MetricStreamRecords,
		"Well-formed records accepted into a stream's ingest queue.",
		telemetry.Labels{"stream": id})
	windows = m.reg.Counter(MetricStreamWindows,
		"Sanitized windows published by a stream.",
		telemetry.Labels{"stream": id})
	return records, windows
}

func (m *serverMetrics) setInflight(v int64) {
	if m != nil {
		m.inflight.Set(float64(v))
	}
}

func (m *serverMetrics) addRestart() {
	if m != nil {
		m.restarts.Inc()
	}
}

// quarantineCounter returns the labeled quarantine counter for a reason
// (never nil; unregistered when metrics are off).
func (m *serverMetrics) quarantineCounter(reason string) *telemetry.Counter {
	if m == nil {
		return &telemetry.Counter{}
	}
	return m.reg.Counter(MetricQuarantines,
		"Streams quarantined, by reason (breaker trip, impossible restart, supervisor panic, rejected config, failed adoption).",
		telemetry.Labels{"reason": reason})
}

func (m *serverMetrics) addQuarantine(reason string) {
	if m != nil {
		m.quarantineCounter(reason).Inc()
	}
}

func (m *serverMetrics) observeDrain(took time.Duration) {
	if m != nil {
		m.drainDur.Set(took.Seconds())
	}
}

func (m *serverMetrics) observeIngest(took time.Duration) {
	if m != nil {
		m.ingestDur.Observe(took.Seconds())
	}
}

func (m *serverMetrics) observeWALAppend(took time.Duration) {
	if m != nil {
		m.walAppend.Observe(took.Seconds())
	}
}

func (m *serverMetrics) observeQueueAge(age time.Duration) {
	if m != nil {
		m.queueAge.Observe(age.Seconds())
	}
}

// observeE2E records one record-to-publish latency and keeps the slowest
// exemplar (stream + window id) behind the gauge.
func (m *serverMetrics) observeE2E(stream string, window uint64, sec float64) {
	if m == nil {
		return
	}
	m.e2eDur.Observe(sec)
	m.e2eMu.Lock()
	if sec > m.e2eMax {
		m.e2eMax = sec
		m.e2eExStream = stream
		m.e2eExWindow = window
		m.e2eSlowest.Set(sec)
	}
	m.e2eMu.Unlock()
}

// slowestE2E returns the slowest end-to-end exemplar (zeroes before any
// observation).
func (m *serverMetrics) slowestE2E() (stream string, window uint64, sec float64) {
	if m == nil {
		return "", 0, 0
	}
	m.e2eMu.Lock()
	defer m.e2eMu.Unlock()
	return m.e2eExStream, m.e2eExWindow, m.e2eMax
}

// streamQueueDepth registers the per-stream pull-style queue-depth gauge.
func (m *serverMetrics) streamQueueDepth(id string, fn func() float64) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc(MetricQueueDepth,
		"Records waiting in a stream's ingest queue, read at scrape time (the autoscaling signal).",
		telemetry.Labels{"stream": id}, fn)
}

// streamCheckpointAge registers the per-stream checkpoint-staleness gauge.
func (m *serverMetrics) streamCheckpointAge(id string, fn func() float64) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc(MetricCheckpointAge,
		"Seconds since a stream's last persisted checkpoint generation (0 before the first save).",
		telemetry.Labels{"stream": id}, fn)
}

// recoveryPhase returns the labeled boot-recovery phase-duration gauge.
func (m *serverMetrics) recoveryPhase(phase string) *telemetry.Gauge {
	if m == nil {
		return &telemetry.Gauge{}
	}
	return m.reg.Gauge(MetricRecoverySeconds,
		"Wall time of the last boot recovery, by phase (manifest load, orphan sweep, adopt total, chain apply, WAL open, WAL replay).",
		telemetry.Labels{"phase": phase})
}

// recoveryStreams returns the labeled boot-recovery stream-count gauge.
func (m *serverMetrics) recoveryStreams(outcome string) *telemetry.Gauge {
	if m == nil {
		return &telemetry.Gauge{}
	}
	return m.reg.Gauge(MetricRecoveryStreams,
		"Streams processed by the last boot recovery, by outcome (adopted runnable vs parked).",
		telemetry.Labels{"outcome": outcome})
}

func (m *serverMetrics) setReplayRate(v float64) {
	if m != nil {
		m.replayRate.Set(v)
	}
}
