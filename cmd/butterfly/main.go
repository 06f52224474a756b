// Command butterfly runs the full output-privacy pipeline of the paper over
// a transaction stream: sliding-window frequent-itemset mining (Moment-style
// incremental miner) followed by Butterfly perturbation, publishing
// sanitized frequent itemsets window by window.
//
// Input is either a file/stdin in the conventional one-transaction-per-line
// format (whitespace-separated item tokens) or a built-in synthetic stream:
//
//	butterfly -input transactions.dat -window 2000 -support 25
//	butterfly -gen webview -n 10000 -publish-every 500 -scheme hybrid
//
// Records are consumed incrementally — a file larger than memory or an
// unbounded stdin stream both work. Malformed input lines are rejected by
// default; -max-bad-records N skips and quarantines up to N of them (-1 for
// no limit). Transient sink failures are retried with exponential backoff
// (-emit-retries), and -window-timeout bounds how long any one window may
// take end to end.
//
// On SIGINT or SIGTERM the stream is drained gracefully: in-flight windows
// finish publishing, then a partial-run summary prints. A second signal
// aborts immediately.
//
// Observability: -telemetry-addr HOST:PORT serves /metrics (Prometheus text
// format), /debug/vars (JSON snapshot of the same registry),
// /debug/trace/events (the per-window flight recorder as Chrome trace-event
// JSON, loadable in Perfetto) and net/http/pprof on a private mux, covering
// per-stage latency, retry and quarantine counters, checkpoint cadence and
// the live privacy/utility posture (see OBSERVABILITY.md). -trace-out FILE
// writes the same trace JSON at exit — on graceful drain, abort and resume
// failure alike — retaining the last -trace-windows windows plus the
// slowest-window exemplars. -log-json switches the stderr status lines to
// structured JSON (log/slog). Telemetry and tracing are observation-only:
// published output is byte-identical with them on or off.
//
// Each published window prints the top itemsets with SANITIZED supports —
// the only supports that ever leave the system.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// statusLogger renders the CLI's operator-facing status lines: plain
// `butterfly: ...` stderr lines by default, structured JSON records (one
// per line, via log/slog) under -log-json. Window output on stdout is the
// published data product and is never routed through here.
type statusLogger struct {
	json *slog.Logger // nil in plain mode
	out  io.Writer    // plain-mode destination
}

func newStatusLogger(jsonMode bool) *statusLogger {
	return newStatusLoggerTo(os.Stderr, jsonMode)
}

// newStatusLoggerTo routes status lines to an explicit writer (tests
// capture both framings through it).
func newStatusLoggerTo(w io.Writer, jsonMode bool) *statusLogger {
	if jsonMode {
		return &statusLogger{json: slog.New(slog.NewJSONHandler(w, nil))}
	}
	return &statusLogger{out: w}
}

// log writes one status event. attrs are alternating key, value pairs
// (slog convention); plain mode renders them as trailing key=value tokens.
func (l *statusLogger) log(level slog.Level, msg string, attrs ...any) {
	if l.json != nil {
		l.json.Log(context.Background(), level, msg, attrs...)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "butterfly: %s", msg)
	for i := 0; i+1 < len(attrs); i += 2 {
		fmt.Fprintf(&b, " %v=%v", attrs[i], attrs[i+1])
	}
	fmt.Fprintln(l.out, b.String())
}

func (l *statusLogger) Info(msg string, attrs ...any)  { l.log(slog.LevelInfo, msg, attrs...) }
func (l *statusLogger) Warn(msg string, attrs ...any)  { l.log(slog.LevelWarn, msg, attrs...) }
func (l *statusLogger) Error(msg string, attrs ...any) { l.log(slog.LevelError, msg, attrs...) }

// telemetryStarted, when non-nil, receives the bound telemetry address once
// the listener is up. Test-only: the end-to-end scrape test uses it to
// discover the :0-assigned port.
var telemetryStarted func(addr string)

// flagValues collects the numeric/durability flags for up-front validation.
type flagValues struct {
	n, window, support, vuln        int
	publishEvery, top, workers      int
	maxBadRecords, emitRetries      int
	windowTimeout                   time.Duration
	checkpointDir                   string
	checkpointEvery, checkpointKeep int
	checkpointFullEvery             int
	resume                          bool
	input                           string
	traceWindows                    int
}

// validateFlags rejects flag values that would otherwise surface as
// undefined behavior deep inside the run — a clear usage error at startup
// instead.
func validateFlags(v flagValues) error {
	if v.n <= 0 {
		return fmt.Errorf("-n %d must be >= 1", v.n)
	}
	if v.window <= 0 {
		return fmt.Errorf("-window %d must be >= 1", v.window)
	}
	if v.support <= 0 {
		return fmt.Errorf("-support %d must be >= 1", v.support)
	}
	if v.vuln <= 0 {
		return fmt.Errorf("-vuln %d must be >= 1", v.vuln)
	}
	if v.publishEvery < 0 {
		return fmt.Errorf("-publish-every %d must be >= 0 (0: publish once, at the end)", v.publishEvery)
	}
	if v.top < 0 {
		return fmt.Errorf("-top %d must be >= 0 (0: print all)", v.top)
	}
	if v.workers < 1 {
		return fmt.Errorf("-workers %d must be >= 1", v.workers)
	}
	if v.maxBadRecords < -1 {
		return fmt.Errorf("-max-bad-records %d must be -1 (unlimited), 0 (fail fast) or a positive budget", v.maxBadRecords)
	}
	if v.emitRetries < 0 {
		return fmt.Errorf("-emit-retries %d must be >= 0", v.emitRetries)
	}
	if v.windowTimeout < 0 {
		return fmt.Errorf("-window-timeout %v must be >= 0 (0: disabled)", v.windowTimeout)
	}
	if v.checkpointDir != "" && v.checkpointEvery <= 0 {
		return fmt.Errorf("-checkpoint-every %d must be >= 1", v.checkpointEvery)
	}
	if v.checkpointDir != "" && v.checkpointKeep < 1 {
		return fmt.Errorf("-checkpoint-keep %d must be >= 1", v.checkpointKeep)
	}
	if v.checkpointDir != "" && v.checkpointFullEvery < 1 {
		return fmt.Errorf("-checkpoint-full-every %d must be >= 1 (1: every checkpoint a full snapshot)", v.checkpointFullEvery)
	}
	if v.resume && v.checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if v.resume && v.input == "-" {
		return fmt.Errorf("-resume cannot replay stdin; use a file -input or a -gen stream")
	}
	if v.traceWindows < 1 {
		return fmt.Errorf("-trace-windows %d must be >= 1", v.traceWindows)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "butterfly: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("butterfly", flag.ContinueOnError)
	var (
		input          = fs.String("input", "", "transaction file (one transaction per line); '-' for stdin")
		gen            = fs.String("gen", "", "synthetic stream instead of -input: webview or pos")
		n              = fs.Int("n", 10000, "records to stream with -gen")
		window         = fs.Int("window", 2000, "sliding window size H")
		support        = fs.Int("support", 25, "minimum support C")
		vuln           = fs.Int("vuln", 5, "vulnerable support K")
		epsilon        = fs.Float64("epsilon", 0.016, "precision bound ε (max relative squared error)")
		delta          = fs.Float64("delta", 0.4, "privacy floor δ (min relative inference error)")
		scheme         = fs.String("scheme", "hybrid", "bias scheme: basic, order, ratio or hybrid")
		lambda         = fs.Float64("lambda", 0.4, "hybrid weight λ (order vs ratio)")
		gamma          = fs.Int("gamma", 2, "order-preserving DP lookback γ")
		publishEvery   = fs.Int("publish-every", 0, "publish every N slides after the window fills (0: once at end)")
		top            = fs.Int("top", 10, "itemsets printed per published window (0 = all)")
		closed         = fs.Bool("closed", false, "publish only closed frequent itemsets")
		seed           = fs.Uint64("seed", 1, "random seed")
		dumpDir        = fs.String("dump-dir", "", "also write each published window to DIR/window-N.txt (audit format)")
		raw            = fs.Bool("raw", false, "UNPROTECTED: publish true supports (for audits and comparisons)")
		workers        = fs.Int("workers", runtime.NumCPU(), "goroutines drawing the perturbation (output is the same at every count)")
		maxBadRecords  = fs.Int("max-bad-records", 0, "malformed input records to skip before failing (0: fail fast, -1: unlimited)")
		emitRetries    = fs.Int("emit-retries", 3, "retries for transient publish failures before the run fails")
		windowTimeout  = fs.Duration("window-timeout", 0, "per-window watchdog: fail the run if one window takes longer (0: disabled)")
		checkpointDir  = fs.String("checkpoint-dir", "", "write crash-safe state snapshots to DIR (see -checkpoint-every, -resume)")
		checkpointEvry = fs.Int("checkpoint-every", 16, "published windows between checkpoints (with -checkpoint-dir)")
		checkpointKeep = fs.Int("checkpoint-keep", 3, "checkpoint generations to retain (with -checkpoint-dir)")
		checkpointFull = fs.Int("checkpoint-full-every", 16, "checkpoints between full snapshots; the rest are appended delta frames (1: all full)")
		resume         = fs.Bool("resume", false, "resume from the newest usable checkpoint in -checkpoint-dir")
		telemetryAddr  = fs.String("telemetry-addr", "", "serve /metrics, /debug/vars, /debug/trace/events and /debug/pprof on HOST:PORT (empty: off)")
		traceOut       = fs.String("trace-out", "", "write the per-window trace as Chrome trace-event JSON to FILE at exit (Perfetto-loadable)")
		traceWindows   = fs.Int("trace-windows", trace.DefaultWindows, "windows retained by the in-process flight recorder")
		logJSON        = fs.Bool("log-json", false, "emit status lines as structured JSON (log/slog) on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(flagValues{
		n: *n, window: *window, support: *support, vuln: *vuln,
		publishEvery: *publishEvery, top: *top, workers: *workers,
		maxBadRecords: *maxBadRecords, emitRetries: *emitRetries,
		windowTimeout: *windowTimeout, checkpointDir: *checkpointDir,
		checkpointEvery: *checkpointEvry, checkpointKeep: *checkpointKeep,
		checkpointFullEvery: *checkpointFull,
		resume:              *resume, input: *input, traceWindows: *traceWindows,
	}); err != nil {
		return err
	}
	logger := newStatusLogger(*logJSON)

	// The telemetry registry always exists — the end-of-run summary is
	// sourced from it, whether or not it is served over HTTP — so the
	// normal and interrupted summary paths read the same counters. The
	// flight recorder exists whenever anything can read it: a -trace-out
	// file, or the live /debug/trace/events endpoint.
	reg := telemetry.NewRegistry()
	var tracer *trace.Tracer
	if *traceOut != "" || *telemetryAddr != "" {
		tracer = trace.New(trace.Options{Windows: *traceWindows})
		tracer.SetMetrics(reg)
	}
	// Flush the trace file on EVERY exit path — graceful drain, signal
	// abort, resume failure, pipeline error — mirroring the summary fix
	// that stopped aborted runs from dropping counters. The deferred flush
	// runs after the summary prints; WriteChromeFile syncs before close so
	// the dump survives the process exiting right after.
	defer func() {
		if tracer == nil || *traceOut == "" {
			return
		}
		if err := tracer.WriteChromeFile(*traceOut); err != nil {
			logger.Error("trace flush failed", "path", *traceOut, "error", err.Error())
			return
		}
		logger.Info("trace written", "path", *traceOut)
	}()
	if *telemetryAddr != "" {
		ln, err := net.Listen("tcp", *telemetryAddr)
		if err != nil {
			return fmt.Errorf("-telemetry-addr: %w", err)
		}
		mux := reg.Mux()
		mux.Handle("/debug/trace/events", tracer.Handler())
		// Slow-loris hardening: a client trickling its header, idling on a
		// kept-alive connection, or never draining a response cannot pin
		// the server open past the graceful drain below. The write timeout
		// is generous because /debug/pprof/profile?seconds=N streams for
		// the profile duration.
		srv := &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       60 * time.Second,
			WriteTimeout:      2 * time.Minute,
			MaxHeaderBytes:    1 << 20,
		}
		logger.Info("telemetry listening", "addr", ln.Addr().String())
		if telemetryStarted != nil {
			telemetryStarted(ln.Addr().String())
		}
		go func() { _ = srv.Serve(ln) }()
		// Drain the observability server alongside the pipeline's own
		// graceful shutdown: in-flight scrapes finish, new ones are refused.
		defer func() {
			shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(shctx); err != nil {
				logger.Warn("telemetry server shutdown", "error", err.Error())
			}
		}()
	}

	src, vocab, closeSrc, err := buildSource(*input, *gen, *n, *seed, stdin)
	if err != nil {
		return err
	}
	if closeSrc != nil {
		defer closeSrc()
	}

	sch, err := buildScheme(*scheme, *lambda, *gamma)
	if err != nil {
		return err
	}

	// Durability: open the checkpoint store up front so a bad directory
	// fails before any streaming starts, and load the resume snapshot —
	// falling back a generation past corrupt files, with a warning.
	var store *checkpoint.Store
	var resumeSnap *checkpoint.Snapshot
	if *checkpointDir != "" {
		store, err = checkpoint.NewStore(*checkpointDir, *checkpointKeep)
		if err != nil {
			return err
		}
		store.Logf = func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		}
	}
	if *resume {
		snap, path, err := store.Latest()
		if err != nil {
			return err
		}
		if snap == nil {
			logger.Warn("no usable checkpoint; starting from the beginning", "dir", *checkpointDir)
		} else {
			logger.Info("resuming from checkpoint",
				"path", path, "record", snap.Records, "published", snap.Published)
			resumeSnap = snap
		}
	}

	ckptEvery := 0
	if store != nil {
		ckptEvery = *checkpointEvry
	}
	pipe, err := pipeline.New(pipeline.Config{
		WindowSize: *window,
		Params: core.Params{
			Epsilon:     *epsilon,
			Delta:       *delta,
			MinSupport:  *support,
			VulnSupport: *vuln,
		},
		Scheme:              sch,
		Seed:                *seed,
		ClosedOnly:          *closed,
		Raw:                 *raw,
		PublishEvery:        *publishEvery,
		Workers:             *workers,
		MaxBadRecords:       *maxBadRecords,
		EmitRetries:         *emitRetries,
		WindowTimeout:       *windowTimeout,
		CheckpointEvery:     ckptEvery,
		CheckpointFullEvery: *checkpointFull,
		CheckpointKeep:      *checkpointKeep,
		Checkpoints:         store,
		Resume:              resumeSnap,
		Metrics:             reg,
		Trace:               tracer,
	})
	if err != nil {
		return err
	}

	mode := "scheme=" + sch.Name()
	if *raw {
		mode = "RAW (no protection)"
	}
	fmt.Fprintf(stdout, "# butterfly: H=%d C=%d K=%d ε=%g δ=%g %s\n",
		*window, *support, *vuln, *epsilon, *delta, mode)
	if *dumpDir != "" {
		if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
			return err
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the source so
	// in-flight windows drain and a partial summary prints; a second signal
	// cancels the run outright.
	drain := pipeline.NewDrainSource(src)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		select {
		case <-sigc:
		case <-ctx.Done():
			return
		}
		logger.Info("interrupt — draining in-flight windows (interrupt again to abort)")
		drain.Stop()
		select {
		case <-sigc:
			cancel()
		case <-ctx.Done():
		}
	}()

	// The audit-dump entry buffer outlives the emit callback so each window
	// reuses the previous window's storage (the dump file is written and
	// synced before the callback returns, so nothing aliases it afterwards).
	var entryBuf []data.PublishedEntry
	rep, err := pipe.RunContext(ctx, drain, func(w pipeline.Window) error {
		printWindow(stdout, w.Output, vocab, *top, w.Position, *window)
		if *dumpDir != "" {
			var err error
			entryBuf, err = dumpWindow(*dumpDir, w.Position, w.Output, vocab, entryBuf)
			return err
		}
		return nil
	})
	if err != nil {
		// A drain interrupt before the window ever filled is a deliberate
		// partial run, not a stream defect — fall through to the summary.
		if !(drain.Stopped() && errors.Is(err, pipeline.ErrShortStream)) {
			logger.Error("aborting", "error", err.Error())
			// The aborted-run summary prints the SAME counters as a clean
			// run — sourced from the telemetry registry, so the two paths
			// cannot diverge and bad-record/retry counts are never lost.
			printSummary(stdout, reg, rep, "aborted", *traceOut)
			return err
		}
	}
	status := ""
	if drain.Stopped() {
		status = "interrupted"
	}
	printSummary(stdout, reg, rep, status, *traceOut)
	return nil
}

// printSummary renders the end-of-run summary block from the telemetry
// registry — the single source the clean, signal-drained and aborted exits
// all share. Only the quarantine detail lines come from the Report (the
// registry holds counts, not line text). status is "" for a clean run,
// "interrupted" for a signal drain, "aborted" for a failed run; tracePath
// names the -trace-out file flushed at exit ("" when tracing to a file is
// off).
func printSummary(w io.Writer, reg *telemetry.Registry, rep *pipeline.Report, status, tracePath string) {
	switch status {
	case "interrupted":
		fmt.Fprintf(w, "# interrupted: the summary reflects a partial stream\n")
	case "aborted":
		fmt.Fprintf(w, "# aborted: the summary reflects a partial stream\n")
	}
	fmt.Fprintf(w, "# %d window(s) published over %d records\n",
		reg.CounterValue(pipeline.MetricWindows), reg.CounterValue(pipeline.MetricRecords))
	if bad := reg.CounterValue(pipeline.MetricBadRecords); bad > 0 {
		fmt.Fprintf(w, "# %d malformed record(s) skipped\n", bad)
		if rep != nil {
			for _, b := range rep.Quarantined {
				fmt.Fprintf(w, "#   %s\n", b.String())
			}
		}
	}
	if retries := reg.CounterValue(pipeline.MetricRetries); retries > 0 {
		fmt.Fprintf(w, "# %d transient failure(s) absorbed by retries\n", retries)
	}
	if ckpts := reg.CounterValue(pipeline.MetricCheckpoints); ckpts > 0 {
		fmt.Fprintf(w, "# %d checkpoint(s) written\n", ckpts)
	}
	if tracePath != "" {
		fmt.Fprintf(w, "# trace: %s\n", tracePath)
	}
}

// dumpWindow writes one published window in the audit format, surfacing
// flush and close failures instead of dropping them in a deferred Close.
// The published itemsets are staged zero-copy — the entries alias the
// Output's itemsets — into buf, which is returned (possibly grown) for the
// next window to reuse.
func dumpWindow(dir string, position int, out *core.Output, vocab *data.Vocabulary, buf []data.PublishedEntry) ([]data.PublishedEntry, error) {
	entries := buf[:0]
	for _, it := range out.Items {
		entries = append(entries, data.PublishedEntry{Support: it.Support, Set: it.Set})
	}
	path := fmt.Sprintf("%s/window-%d.txt", dir, position)
	f, err := os.Create(path)
	if err != nil {
		return entries, err
	}
	if err := data.WritePublished(f, entries, vocab); err != nil {
		f.Close()
		return entries, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return entries, fmt.Errorf("syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return entries, fmt.Errorf("closing %s: %w", path, err)
	}
	return entries, nil
}

// buildSource assembles the incremental record source for the chosen input.
// File and stdin inputs stream through a shared vocabulary (used to render
// published itemsets); generated streams render numeric ids. The returned
// closer, when non-nil, must be called once the run finishes.
func buildSource(input, gen string, n int, seed uint64, stdin io.Reader) (pipeline.RecordSource, *data.Vocabulary, func() error, error) {
	switch {
	case input != "" && gen != "":
		return nil, nil, nil, fmt.Errorf("-input and -gen are mutually exclusive")
	case input == "-":
		vocab := data.NewVocabulary()
		return pipeline.ReaderSource(stdin, vocab), vocab, nil, nil
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, nil, nil, err
		}
		vocab := data.NewVocabulary()
		return pipeline.ReaderSource(f, vocab), vocab, f.Close, nil
	case gen == "webview":
		return pipeline.GeneratorSource(data.WebViewLike(seed), n), nil, nil, nil
	case gen == "pos":
		return pipeline.GeneratorSource(data.POSLike(seed), n), nil, nil, nil
	case gen != "":
		return nil, nil, nil, fmt.Errorf("unknown generator %q (webview or pos)", gen)
	default:
		return nil, nil, nil, fmt.Errorf("need -input FILE or -gen NAME")
	}
}

func buildScheme(name string, lambda float64, gamma int) (core.Scheme, error) {
	return core.SchemeByName(name, lambda, gamma)
}

func printWindow(w io.Writer, out *core.Output, vocab *data.Vocabulary, top, position, windowSize int) {
	fmt.Fprintf(w, "\n== window Ds(%d,%d): %d frequent itemsets ==\n", position, windowSize, out.Len())
	limit := len(out.Items)
	if top > 0 && top < limit {
		limit = top
	}
	for _, item := range out.Items[:limit] {
		var name string
		if vocab != nil {
			name = vocab.Render(item.Set)
		} else {
			name = item.Set.String()
		}
		fmt.Fprintf(w, "  %-40s %d\n", name, item.Support)
	}
	if limit < len(out.Items) {
		fmt.Fprintf(w, "  ... and %d more\n", len(out.Items)-limit)
	}
}
