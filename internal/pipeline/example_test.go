package pipeline_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// Example runs a three-window publication over a synthetic click stream:
// a sliding window of 300 records, publishing every 100 slides, with the
// staged pipeline and chunked perturbation on two workers. Fixed seeds make
// the run fully deterministic — any worker count >= 2 prints the same thing.
func Example() {
	p, err := pipeline.New(pipeline.Config{
		WindowSize:   300,
		Params:       core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		Scheme:       core.Hybrid{Lambda: 0.4},
		Seed:         1,
		PublishEvery: 100,
		Workers:      2,
	})
	if err != nil {
		panic(err)
	}
	records := data.WebViewLike(1).Generate(500)
	_, err = p.RunContext(context.Background(), pipeline.SliceSource(records), func(w pipeline.Window) error {
		top := w.Output.Items[0]
		fmt.Printf("window ending at record %d: %d itemsets, top %v with sanitized support %d\n",
			w.Position, w.Output.Len(), top.Set, top.Support)
		return nil
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// window ending at record 300: 31 itemsets, top {i307} with sanitized support 118
	// window ending at record 400: 34 itemsets, top {i307} with sanitized support 113
	// window ending at record 500: 34 itemsets, top {i307} with sanitized support 116
}

// Example_telemetry attaches a telemetry.Registry to the same run. The
// registry is observation-only — the published windows are byte-identical
// with or without it — and afterwards holds the run's throughput counters,
// per-stage latency histograms, and the rolling privacy-posture gauges that
// cmd/butterfly serves at /metrics.
func Example_telemetry() {
	reg := telemetry.NewRegistry()
	params := core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
	p, err := pipeline.New(pipeline.Config{
		WindowSize:   300,
		Params:       params,
		Scheme:       core.Hybrid{Lambda: 0.4},
		Seed:         1,
		PublishEvery: 100,
		Workers:      2,
		Metrics:      reg,
	})
	if err != nil {
		panic(err)
	}
	records := data.WebViewLike(1).Generate(500)
	if _, err := p.RunContext(context.Background(), pipeline.SliceSource(records), func(pipeline.Window) error { return nil }); err != nil {
		panic(err)
	}

	fmt.Printf("records consumed: %d\n", reg.CounterValue(pipeline.MetricRecords))
	fmt.Printf("windows published: %d\n", reg.CounterValue(pipeline.MetricWindows))
	// Durations vary run to run, but the histogram COUNTS are exact: every
	// stage observed every window.
	for _, f := range reg.Snapshot() {
		if f.Name == pipeline.MetricStageSeconds {
			for _, s := range f.Series {
				fmt.Printf("%s%s observations: %d\n", f.Name, s.Labels, s.Count)
			}
		}
	}
	// The rolling avg_prig proxy must sit on or above the privacy floor δ.
	for _, f := range reg.Snapshot() {
		if f.Name == core.MetricAvgPrig {
			fmt.Printf("avg_prig >= delta: %v\n", f.Series[0].Value >= params.Delta)
		}
	}
	// Output:
	// records consumed: 500
	// windows published: 3
	// butterfly_stage_seconds{stage="emit"} observations: 3
	// butterfly_stage_seconds{stage="mine"} observations: 3
	// butterfly_stage_seconds{stage="perturb"} observations: 3
	// butterfly_stage_seconds{stage="source"} observations: 3
	// avg_prig >= delta: true
}
