// Command perfbench is the repository's benchmark: three workloads that
// drive butterflyd's server package in-process over loopback and the
// pipeline library directly, measured end to end (tracing off) or per
// layer (--trace 1). See README.md for the workloads, metrics and how to
// read them.
//
//	sh perfbench/run.sh --workload ingest-durable --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is one invocation's settings.
type env struct {
	workload string
	seed     uint64
	seconds  int
	rate     int    // service-paced offered rate override (records/s per stream)
	work     string // scratch directory inside the checkout
	hooks    *traceHooks
	gate     *hostGate
}

// subRuns is how many times a run repeats its measured phase, each time
// with a fresh server or pipeline and fresh clients over the same
// generated input, for --seconds/subRuns seconds. Every end-to-end metric
// is the median over the sub-runs: on a shared host a whole sub-run can
// land in a slow spell (a latency offset that holds for seconds, then
// lifts), and the median of five is immune to two.
const subRuns = 5

// subRun is what one repetition of the measured phase yields.
type subRun struct {
	setup    sample // seconds per set-up trial
	records  int    // records accepted and published while measuring
	windows  int    // windows published while measuring
	elapsed  time.Duration
	ack, e2e sample   // milliseconds
	late     sample   // open-loop generator lateness, milliseconds
	rt       runStats // process costs over set-up and the measured phase
}

// result is what one run of a workload yields.
type result struct {
	subs    []*subRun
	verdict verdict
	notes   []string
	inputs  []replayInput // what the serial layer replay drives again
}

// subSeconds is the length of one sub-run's measured phase. Every run
// starts with an unmeasured warm-up sub-run of half that length (heap
// growth, connection set-up, page cache), whose figures are discarded.
func (e *env) subSeconds() time.Duration {
	return time.Duration(e.seconds) * time.Second / subRuns
}

// metric is one named value of the report.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value (0: not a sampled statistic)
}

var workloads = map[string]func(*env) (*result, error){
	"ingest-durable": runIngestDurable,
	"publish-dense":  runPublishDense,
	"service-paced":  runServicePaced,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "ingest-durable, publish-dense or service-paced")
		seed     = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Int("seconds", 20, "how long the measured phase runs")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		rate     = flag.Int("rate", 0, "service-paced only: offered records/s per stream (0: the fixed benchmark rate)")
	)
	flag.Parse()
	runW, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload ingest-durable|publish-dense|service-paced --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	work, _ = filepath.Abs(work)
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, rate: *rate, work: work,
		gate: newHostGate()}

	host := fingerprint(e)
	var ms, extra []metric
	var res *result
	if *traced == 0 {
		res, err = runW(e)
		if err == nil {
			ms, extra = endToEnd(res)
		}
	} else {
		res, ms, err = runTraced(e, runW)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	host["trace_overhead"] = lookup(ms, "bench.trace_overhead")
	host["gate"] = map[string]any{"best_probe_ms": e.gate.best, "waited_s": e.gate.waited.Seconds(),
		"redone": e.gate.redone, "kept_noisy": e.gate.noisy}
	printReport(e, host, res, ms, extra)
	if res.verdict.failed > 0 || len(res.verdict.problems) > 0 {
		return 1
	}
	return 0
}

// endToEnd derives the end-to-end metrics from an untraced run: each is
// the median over sub-runs of the sub-run's value (setup_s: the median of
// every set-up trial). n is the smallest per-sub-run sample count.
//
// The first list is what BENCHMARK.json bounds. The second holds the p99
// latencies: they are printed on every run and reported as per-layer
// metrics on a traced run, but not bounded, because on a shared 2-CPU host
// their run-to-run spread is several times the largest bound allowed.
func endToEnd(r *result) (bounded, tails []metric) {
	perSub := func(name, unit string, f func(s *subRun) float64, n func(s *subRun) int) metric {
		var vals sample
		minN := 0
		for i, s := range r.subs {
			vals.add(f(s))
			if n != nil && (i == 0 || n(s) < minN) {
				minN = n(s)
			}
		}
		return metric{name, vals.median(), unit, minN}
	}
	pct := func(name string, p float64, pick func(s *subRun) *sample) metric {
		return perSub(name, "ms", func(s *subRun) float64 {
			v, _ := pick(s).percentile(p)
			return v
		}, func(s *subRun) int { return pick(s).n() })
	}
	ack := func(s *subRun) *sample { return &s.ack }
	e2e := func(s *subRun) *sample { return &s.e2e }
	var setup sample
	for _, s := range r.subs {
		setup.xs = append(setup.xs, s.setup.xs...)
	}
	bounded = []metric{
		{"setup_s", setup.median(), "s", setup.n()},
		perSub("records_per_s", "1/s", func(s *subRun) float64 { return float64(s.records) / s.elapsed.Seconds() }, nil),
		perSub("windows_per_s", "1/s", func(s *subRun) float64 { return float64(s.windows) / s.elapsed.Seconds() }, nil),
		pct("ack_p50_ms", 0.50, ack),
		pct("e2e_p50_ms", 0.50, e2e),
		perSub("heap_peak_mb", "MiB", func(s *subRun) float64 { return s.rt.heapMB }, nil),
		{"avg_pred", mean(r.verdict.avgPred.xs), "ratio", 0},
		{"ropp", mean(r.verdict.ropp.xs), "ratio", 0},
	}
	tails = []metric{
		pct("bench.ack_p99_ms", 0.99, ack),
		pct("bench.e2e_p99_ms", 0.99, e2e),
	}
	return bounded, tails
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func lookup(ms []metric, name string) any {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return nil
}

// fingerprint describes the host: CPUs, GOMAXPROCS, Go version, the seed,
// and a fixed single-core speed probe, so reports from different machines
// are never compared blind.
func fingerprint(e *env) map[string]any {
	return map[string]any{
		"workload":       e.workload,
		"seed":           e.seed,
		"seconds":        e.seconds,
		"cpus":           runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"core_probe_ms":  coreProbe(),
		"core_probe_def": "median of 5 timings of 2^22 rounds of an xorshift-multiply loop on one goroutine",
	}
}

// coreProbe is the host fingerprint's per-core speed: the median of five
// probes.
func coreProbe() float64 {
	var s sample
	for r := 0; r < 5; r++ {
		s.add(probeOnce())
	}
	return s.median()
}

// line renders a metric for the human-readable report: value, unit and,
// for sampled statistics, the per-sub-run sample count and the highest
// percentile it supports.
func (m metric) line() string {
	line := fmt.Sprintf("%-34s %16.6g %-6s", m.name, m.value, m.unit)
	if m.n > 0 {
		line += fmt.Sprintf(" n=%d", m.n)
		if p, ok := highestSupported(m.n); ok && strings.Contains(m.name, "_p") {
			line += fmt.Sprintf(" (supports p%.4g)", 100*p)
		}
	}
	return line
}

// printReport writes the human-readable report (host, then one line per
// metric with unit and sample count, then any problems) and, last, the
// machine-readable JSON line.
func printReport(e *env, host map[string]any, r *result, ms, extra []metric) {
	hb, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hb)
	v := r.verdict
	failedShare := 0.0
	if v.attempted > 0 {
		failedShare = float64(v.failed) / float64(v.attempted)
	}
	fmt.Printf("# %s output digest %016x over %d windows; failed_share %.6g (%d of %d records)\n",
		e.workload, v.digest, v.windowsOK, failedShare, v.failed, v.attempted)
	for _, m := range ms {
		fmt.Println(m.line())
	}
	for _, m := range extra {
		fmt.Println("# unbounded:", m.line())
	}
	for _, n := range r.notes {
		fmt.Println("# note:", n)
	}
	for _, p := range v.problems {
		fmt.Println("# FAILED:", p)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   v.failed == 0 && len(v.problems) == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   map[string]map[string]any{},
	}
	for _, m := range ms {
		val := m.value
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		out.Metrics[m.name] = map[string]any{"value": val, "unit": m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}
