// Command butterflyd is the long-running Butterfly sanitization service: it
// hosts many independent sanitized streams behind an HTTP API (see
// internal/server) next to the usual observability endpoints (/metrics,
// /debug/vars, /debug/pprof).
//
//	butterflyd -addr :8080 -data-dir /var/lib/butterflyd
//
// With -data-dir, acceptance is durable: every 2xx ingest response means
// the lines are fsynced to the stream's write-ahead log, and a restart
// over the same directory recovers every admitted stream — checkpoints,
// WAL tails, quarantine states — so a kill -9 loses nothing accepted.
//
// Streams are created, fed, and drained over the v1 control plane:
//
//	POST   /v1/streams                 create (JSON body, see StreamConfig)
//	GET    /v1/streams                 list
//	GET    /v1/streams/{id}            status
//	DELETE /v1/streams/{id}            delete
//	POST   /v1/streams/{id}/records    ingest (one transaction per line)
//	POST   /v1/streams/{id}/close      end of stream: final window + checkpoint
//	POST   /v1/streams/{id}/pause      gate the stream's source
//	POST   /v1/streams/{id}/resume     reopen the gate / leave quarantine
//	GET    /v1/streams/{id}/windows    retained published windows (?from=N)
//	GET    /v1/streams/{id}/trace      flight-recorder spans (trace_windows > 0)
//
// Health probes ride the same mux: GET /healthz is liveness plus a
// diagnostic snapshot (always 200 once the listener binds — the daemon
// binds before boot recovery so probes can watch a long WAL replay), and
// GET /readyz is readiness (503 with reasons while recovering or
// draining). The /v1 surface is gated 503 until recovery completes.
//
// The first SIGINT/SIGTERM starts a graceful drain: ingest is refused, every
// stream publishes its final window and checkpoints, and the process exits
// once all streams settle or -drain-timeout expires. A second signal aborts
// immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// serverStarted, when non-nil, receives the bound address once the listener
// is up. Test-only: the end-to-end test uses it to discover the :0 port.
var serverStarted func(addr string)

// flagValues collects the flags for up-front validation.
type flagValues struct {
	addr             string
	maxStreams       int
	maxInflightBytes int64
	queueDepth       int
	history          int
	breakerFailures  int
	restartBackoff   time.Duration
	replayLimit      int
	drainTimeout     time.Duration
	ckptFullEvery    int
}

// validateFlags rejects values that would otherwise surface as undefined
// behavior deep inside the service — a clear usage error at startup instead.
func validateFlags(v flagValues) error {
	if v.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if v.maxStreams < 1 {
		return fmt.Errorf("-max-streams %d must be >= 1", v.maxStreams)
	}
	if v.maxInflightBytes < 1 {
		return fmt.Errorf("-max-inflight-bytes %d must be >= 1", v.maxInflightBytes)
	}
	if v.queueDepth < 1 {
		return fmt.Errorf("-queue-depth %d must be >= 1", v.queueDepth)
	}
	if v.history < 1 {
		return fmt.Errorf("-history %d must be >= 1", v.history)
	}
	if v.breakerFailures < 1 {
		return fmt.Errorf("-breaker-failures %d must be >= 1", v.breakerFailures)
	}
	if v.restartBackoff <= 0 {
		return fmt.Errorf("-restart-backoff %v must be > 0", v.restartBackoff)
	}
	if v.replayLimit < 1 {
		return fmt.Errorf("-replay-limit %d must be >= 1", v.replayLimit)
	}
	if v.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout %v must be > 0", v.drainTimeout)
	}
	if v.ckptFullEvery < 1 {
		return fmt.Errorf("-checkpoint-full-every %d must be >= 1 (1: every checkpoint a full snapshot)", v.ckptFullEvery)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("butterflyd", flag.ContinueOnError)
	var (
		addr            = fs.String("addr", ":8080", "HOST:PORT the service listens on")
		dataDir         = fs.String("data-dir", "", "durable state root: stream manifest, per-stream checkpoints + ingest WAL under DIR/streams/<stream-id>/ (empty: memory only)")
		maxStreams      = fs.Int("max-streams", 1024, "admission cap on concurrently hosted streams")
		maxInflight     = fs.Int64("max-inflight-bytes", 256<<20, "server-wide cap on queued ingest bytes (503 beyond it)")
		queueDepth      = fs.Int("queue-depth", 1024, "default per-stream ingest queue depth in records (429 when full)")
		history         = fs.Int("history", 64, "default published windows retained per stream for GET /windows")
		breakerFailures = fs.Int("breaker-failures", 3, "consecutive failed runs before a stream is quarantined")
		restartBackoff  = fs.Duration("restart-backoff", 25*time.Millisecond, "initial in-process restart delay (doubles per consecutive failure)")
		replayLimit     = fs.Int("replay-limit", 65536, "per-stream replay buffer cap in records (restartability bound)")
		ckptFullEvery   = fs.Int("checkpoint-full-every", 16, "default checkpoints between full snapshots per stream; the rest are delta frames (1: all full)")
		drainTimeout    = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline after the first signal")
		logJSON         = fs.Bool("log-json", false, "emit logs as structured JSON (log/slog) on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(flagValues{
		addr: *addr, maxStreams: *maxStreams, maxInflightBytes: *maxInflight,
		queueDepth: *queueDepth, history: *history,
		breakerFailures: *breakerFailures, restartBackoff: *restartBackoff,
		replayLimit: *replayLimit, drainTimeout: *drainTimeout,
		ckptFullEvery: *ckptFullEvery,
	}); err != nil {
		return err
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	reg := telemetry.NewRegistry()
	srv := server.New(server.Options{
		DataDir:             *dataDir,
		MaxStreams:          *maxStreams,
		MaxInflightBytes:    *maxInflight,
		QueueDepth:          *queueDepth,
		History:             *history,
		BreakerFailures:     *breakerFailures,
		RestartBackoff:      *restartBackoff,
		ReplayLimit:         *replayLimit,
		DrainTimeout:        *drainTimeout,
		CheckpointFullEvery: *ckptFullEvery,
		Logger:              logger,
		Registry:            reg,
	})

	// One mux serves the v1 control plane and the observability endpoints.
	mux := reg.Mux()
	srv.Routes(mux)

	// A durable boot binds the listener *before* recovery runs, so probes
	// can watch a long WAL replay instead of timing out on a dead port:
	// /healthz answers 200 immediately, /readyz says "recovering", and the
	// gated /v1 surface refuses with 503 + Retry-After until the registry
	// is rebuilt. Clients still never reach half-adopted streams.
	if *dataDir != "" {
		srv.BeginBoot()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	// Slow-loris hardening, matching cmd/butterfly's telemetry server: a
	// client trickling headers, idling keep-alives, or never draining a
	// response cannot pin the process open past the drain deadline. The
	// write timeout is generous because /debug/pprof/profile?seconds=N
	// streams for the profile duration. Ingest bodies are read under it
	// too, so a well-behaved client should keep individual POSTs bounded.
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
		WriteTimeout:      2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if serverStarted != nil {
		serverStarted(ln.Addr().String())
	}

	if *dataDir != "" {
		rep, err := srv.Recover()
		if err != nil {
			hs.Close()
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
		logger.Info("recovered", "data_dir", *dataDir, "adopted", rep.Adopted,
			"parked", rep.Parked, "replayed", rep.Replayed, "orphans_swept", len(rep.Orphans),
			"took", rep.Took.String(), "chain_apply", rep.ChainApply.String(),
			"wal_replay", rep.WALReplay.String(),
			"replay_lines_per_sec", fmt.Sprintf("%.0f", rep.ReplayRate))
	}
	// Logged after recovery on purpose: tooling that waits for this line
	// gets a server whose /v1 surface is open for business.
	logger.Info("butterflyd listening", "addr", ln.Addr().String(),
		"data_dir", *dataDir, "max_streams", *maxStreams)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-serveErr:
		srv.Abort()
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "deadline", drainTimeout.String())
	}

	// Graceful drain under the deadline; a second signal aborts immediately.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	done := make(chan server.DrainReport, 1)
	go func() { done <- srv.Shutdown(drainCtx) }()

	var rep server.DrainReport
	select {
	case rep = <-done:
	case sig := <-sigc:
		logger.Warn("drain aborted", "signal", sig.String())
		cancel()
		srv.Abort()
		rep = <-done
	}

	// Stop accepting HTTP after the streams settle (requests racing the
	// drain got their 503s from the draining flag, not connection resets).
	shctx, shcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shcancel()
	if err := hs.Shutdown(shctx); err != nil {
		logger.Warn("http shutdown", "error", err.Error())
	}

	for id, state := range rep.Streams {
		logger.Info("stream drained", "stream", id, "state", state)
	}
	fmt.Fprintf(stdout, "butterflyd: drained %d streams in %s (clean=%v)\n",
		len(rep.Streams), rep.Took.Round(time.Millisecond), rep.Clean)
	if !rep.Clean {
		return fmt.Errorf("drain incomplete after %s", rep.Took.Round(time.Millisecond))
	}
	return nil
}
