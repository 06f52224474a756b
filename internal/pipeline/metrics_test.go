package pipeline

// Telemetry tests: the observation-only A/B contract (published bytes
// identical with metrics on and off at every worker count), the recording
// contract (every stage signal lands in the registry), and the doc-sync
// gate (OBSERVABILITY.md and the live registry list exactly the same
// metric names, in both directions).

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// funcSource adapts a closure to the RecordSource interface (test-only).
type funcSource func() (itemset.Itemset, error)

func (f funcSource) Next() (itemset.Itemset, error) { return f() }

func telemetryTestConfig(workers int, reg *telemetry.Registry) Config {
	return Config{
		WindowSize:   300,
		Params:       core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		Scheme:       core.Hybrid{Lambda: 0.4},
		Seed:         11,
		PublishEvery: 100,
		Workers:      workers,
		Metrics:      reg,
	}
}

// renderRun executes one pipeline run and renders every published window to
// a canonical byte string (position plus every itemset and sanitized
// support, in output order).
func renderRun(t *testing.T, cfg Config, records []itemset.Itemset) string {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	_, err = p.RunContext(context.Background(), SliceSource(records), func(w Window) error {
		fmt.Fprintf(&b, "== %d\n", w.Position)
		for _, it := range w.Output.Items {
			fmt.Fprintf(&b, "%s %d\n", it.Set.Key(), it.Support)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTelemetryABIdentity is the observation-only gate: at workers 1, 2
// and 8, a telemetry-enabled run publishes output byte-identical to a
// telemetry-disabled run. CI executes this race-enabled.
func TestTelemetryABIdentity(t *testing.T) {
	records := data.WebViewLike(3).Generate(900)
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			off := renderRun(t, telemetryTestConfig(workers, nil), records)
			on := renderRun(t, telemetryTestConfig(workers, telemetry.NewRegistry()), records)
			if off != on {
				t.Errorf("published output differs with telemetry enabled (workers=%d):\n--- off ---\n%s--- on ---\n%s",
					workers, off, on)
			}
			if !strings.Contains(off, "== 900") {
				t.Fatalf("run did not publish the final window:\n%s", off)
			}
		})
	}
}

// TestTelemetryRecording runs a multi-window stream and checks that every
// pipeline- and publisher-side signal landed in the registry with sane
// values.
func TestTelemetryRecording(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := telemetryTestConfig(2, reg)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 1
	records := data.WebViewLike(3).Generate(900)
	renderRun(t, cfg, records)

	count := func(name string) uint64 { return reg.CounterValue(name) }
	if got := count(MetricRecords); got != 900 {
		t.Errorf("%s = %d, want 900", MetricRecords, got)
	}
	windows := count(MetricWindows)
	if windows != 7 { // positions 300, 400, ..., 900
		t.Errorf("%s = %d, want 7", MetricWindows, windows)
	}
	if got := count(MetricCheckpoints); got != windows {
		t.Errorf("%s = %d, want %d (checkpoint-every=1)", MetricCheckpoints, got, windows)
	}
	if got := count(MetricBadRecords) + count(MetricRetries) + count(MetricPanics) + count(MetricWatchdogTrips); got != 0 {
		t.Errorf("fault counters nonzero on a clean run: %d", got)
	}

	var histCounts = map[string]uint64{}
	var gauges = map[string]float64{}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			key := f.Name + s.Labels
			switch f.Type {
			case telemetry.TypeHistogram:
				histCounts[key] += s.Count
			case telemetry.TypeGauge:
				gauges[key] = s.Value
			}
		}
	}
	for _, stage := range []string{"mine", "perturb", "emit"} {
		key := MetricStageSeconds + `{stage="` + stage + `"}`
		if histCounts[key] != windows {
			t.Errorf("stage %s observed %d windows, want %d", stage, histCounts[key], windows)
		}
	}
	if histCounts[MetricCkptSave] != windows {
		t.Errorf("checkpoint-save histogram observed %d, want %d", histCounts[MetricCkptSave], windows)
	}
	if histCounts[core.MetricBiasOptSeconds] != windows {
		t.Errorf("bias-opt histogram observed %d, want %d", histCounts[core.MetricBiasOptSeconds], windows)
	}

	// A slide of 100 over a window of 300 keeps most itemsets' supports
	// moving, but across 7 windows SOME republication must have happened,
	// and every published itemset is either a hit or a miss.
	hits, misses := count(core.MetricCacheHits), count(core.MetricCacheMisses)
	if hits == 0 {
		t.Error("republication cache recorded zero hits over 7 overlapping windows")
	}
	if hits+misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
	if gauges[core.MetricCacheEntries] == 0 {
		t.Error("cache-entries gauge never set")
	}

	// §V-C posture gauges: pred within the calibrated ε budget (loose 2x
	// slack — it is a mean, not the bound), prig proxy above the δ floor,
	// rates in [0, 1].
	pred, prig := gauges[core.MetricAvgPred], gauges[core.MetricAvgPrig]
	if pred <= 0 || pred > 2*cfg.Params.Epsilon {
		t.Errorf("avg_pred gauge %v outside (0, 2ε=%v]", pred, 2*cfg.Params.Epsilon)
	}
	if prig < cfg.Params.Delta {
		t.Errorf("avg_prig proxy %v below the δ floor %v", prig, cfg.Params.Delta)
	}
	for _, name := range []string{core.MetricROPP, core.MetricRRPP} {
		if v := gauges[name]; v <= 0 || v > 1 {
			t.Errorf("%s gauge %v outside (0, 1]", name, v)
		}
	}
	if gauges[MetricWindowSets] == 0 {
		t.Error("window-itemsets gauge never set")
	}
}

// TestTelemetryFaultCounters drives the retry and quarantine paths and
// checks the labeled counters.
func TestTelemetryFaultCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := telemetryTestConfig(2, reg)
	cfg.EmitRetries = 3
	cfg.MaxBadRecords = -1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := data.WebViewLike(3).Generate(400)
	// A source that surfaces two malformed records mid-stream.
	i := 0
	badAt := map[int]bool{50: true, 60: true}
	src := funcSource(func() (itemset.Itemset, error) {
		if badAt[i] {
			delete(badAt, i)
			return itemset.Itemset{}, &data.ParseError{Line: i, Err: fmt.Errorf("synthetic")}
		}
		if i >= len(records) {
			return itemset.Itemset{}, io.EOF
		}
		rec := records[i]
		i++
		return rec, nil
	})
	emitFails := 2
	_, err = p.RunContext(context.Background(), src, func(w Window) error {
		if emitFails > 0 {
			emitFails--
			return Transient(fmt.Errorf("synthetic sink hiccup"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(MetricBadRecords); got != 2 {
		t.Errorf("%s = %d, want 2", MetricBadRecords, got)
	}
	if got := reg.CounterValue(MetricRetries); got != 2 {
		t.Errorf("%s = %d, want 2 emit retries", MetricRetries, got)
	}
}

// TestObservabilityDocSync moved to internal/server (docsync_test.go): the
// server package sits above pipeline, publisher, tracer AND its own
// instruments, so it is the one place the FULL metric namespace can be
// assembled (this package cannot import internal/server without a cycle).
// The pipeline side of the registration is exported as RegisterMetrics.

// TestTelemetrySourceStageSplit pins what the mine stage means: a source
// that stalls once per window must show the stall under stage="source" in
// both the histogram and the flight recorder, and the mine share — the
// window's slide and snapshot compute — must exclude it.
func TestTelemetrySourceStageSplit(t *testing.T) {
	const stall = 40 * time.Millisecond
	reg := telemetry.NewRegistry()
	tr := trace.New(trace.Options{Windows: 32})
	cfg := telemetryTestConfig(1, reg)
	cfg.Trace = tr
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := data.WebViewLike(3).Generate(600)
	i := 0
	src := funcSource(func() (itemset.Itemset, error) {
		if i >= len(records) {
			return itemset.Itemset{}, io.EOF
		}
		// Stall on the first record of each window's slide: positions 1
		// (the 300-record fill), 301, 401 and 501.
		if i == 0 || (i >= cfg.WindowSize && i%cfg.PublishEvery == 0) {
			time.Sleep(stall)
		}
		i++
		return records[i-1], nil
	})
	rep, err := p.RunContext(context.Background(), src, func(Window) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	const windows = 4
	if rep.Published != windows {
		t.Fatalf("published %d windows, want %d", rep.Published, windows)
	}
	stalled := (stall * windows).Seconds()

	sums := map[string]float64{}
	for _, f := range reg.Snapshot() {
		if f.Name != MetricStageSeconds {
			continue
		}
		for _, s := range f.Series {
			if s.Count != windows {
				t.Errorf("%s%s observed %d windows, want %d", f.Name, s.Labels, s.Count, windows)
			}
			sums[s.Labels] = s.Sum
		}
	}
	t.Logf("stage sums: source %.3fs, mine %.3fs (stalled %.3fs)", sums[`{stage="source"}`], sums[`{stage="mine"}`], stalled)
	if got := sums[`{stage="source"}`]; got < stalled {
		t.Errorf(`stage="source" sums %.3fs, want at least the %.3fs the source stalled`, got, stalled)
	}
	if got := sums[`{stage="mine"}`]; got >= stalled {
		t.Errorf(`stage="mine" sums %.3fs, want less than the %.3fs stall it must exclude`, got, stalled)
	}

	spans := map[string]time.Duration{}
	recs := tr.Snapshot()
	if len(recs) != windows {
		t.Fatalf("flight recorder holds %d windows, want %d", len(recs), windows)
	}
	for _, rec := range recs {
		for _, sp := range rec.Spans {
			spans[sp.Name] += sp.Dur
		}
	}
	if got := spans["source"].Seconds(); got < stalled {
		t.Errorf("source spans sum %.3fs, want at least %.3fs", got, stalled)
	}
	if got := spans["mine"].Seconds(); got >= stalled {
		t.Errorf("mine spans sum %.3fs, want less than %.3fs", got, stalled)
	}
}
