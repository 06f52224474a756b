package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/server"
)

// service is an in-process butterflyd: a server.Server behind a loopback
// HTTP listener, with every hosted stream's sink wrapped so the benchmark
// sees each published window (for e2e timing and the output check).
type service struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// serverOptions returns the server options every service workload uses:
// a durable data dir and a sink wrapper feeding caps[id]. With trace hooks
// (nil: untraced) the source and the downstream emit are timed too.
func serverOptions(dataDir string, caps map[string]*capture, h *traceHooks) server.Options {
	return server.Options{
		DataDir:             dataDir,
		CheckpointFullEvery: checkpointFullEvery,
		WrapSource:          h.wrapSource(),
		WrapSink: func(id string, emit func(pipeline.Window) error) func(pipeline.Window) error {
			c := caps[id]
			return func(w pipeline.Window) error {
				t0 := time.Now()
				c.observe(t0, w)
				if h == nil {
					return emit(w)
				}
				t1 := time.Now()
				err := emit(w)
				h.observeEmit(time.Since(t1))
				return err
			}
		},
	}
}

// listen serves srv's control plane on a loopback port.
func listen(srv *server.Server) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	srv.Routes(mux)
	sv := &service{
		srv:  srv,
		hs:   &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(sv.done)
		if err := sv.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return sv, nil
}

// close stops the listener and drains the server.
func (sv *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sv.hs.Shutdown(ctx)
	<-sv.done
	sv.srv.Shutdown(ctx)
}

// httpClient is the load generator's client: one keep-alive connection per
// client goroutine.
func httpClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}, Timeout: time.Minute}
}

func (sv *service) client(hc *http.Client, id string, fl *flow) *ingestClient {
	return &ingestClient{hc: hc, url: sv.base + "/v1/streams/" + id + "/records", flow: fl}
}

// closeAndWait ends each stream's ingest and waits until its pipeline has
// drained to done: the final window and checkpoint are written.
func closeAndWait(srv *server.Server, ids []string, limit time.Duration) error {
	for _, id := range ids {
		if _, err := srv.CloseIngest(id); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(limit)
	for _, id := range ids {
		for {
			st, err := srv.Status(id)
			if err != nil {
				return err
			}
			if st.State == server.StateDone {
				break
			}
			if st.State != server.StateRunning {
				return fmt.Errorf("stream %s ended %s: %s", id, st.State, st.LastError)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stream %s did not drain within %v", id, limit)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// streamConfig is the create request for one hosted stream.
func (s streamSpec) streamConfig(id string) server.StreamConfig {
	return server.StreamConfig{
		ID: id, Window: s.window, Epsilon: s.epsilon, Delta: s.delta,
		MinSupport: s.minSupport, VulnSupport: s.vulnSupport,
		Scheme: "hybrid", Lambda: s.lambda, Seed: s.seed,
		PublishEvery: s.publishEvery, Workers: 1,
		CheckpointEvery: 1, CheckpointFullEvery: checkpointFullEvery,
		QueueDepth: s.queueDepth,
	}
}

// hostedStream is one stream of a service workload: its id, spec and
// generated input, shared by every sub-run.
type hostedStream struct {
	id    string
	spec  streamSpec
	lines *corpus
}

// streamRun is one stream's outcome in one sub-run.
type streamRun struct {
	cap  *capture
	sent int // lines acknowledged by the end of the sub-run
	lost int // lines a non-retryable ingest error left unacknowledged
}

func newStreamRuns(n int) []*streamRun {
	out := make([]*streamRun, n)
	for i := range out {
		out[i] = &streamRun{cap: newCapture()}
	}
	return out
}

func captures(streams []*hostedStream, runs []*streamRun) map[string]*capture {
	m := map[string]*capture{}
	for i, hs := range streams {
		m[hs.id] = runs[i].cap
	}
	return m
}

func ids(streams []*hostedStream) []string {
	out := make([]string, len(streams))
	for i, hs := range streams {
		out[i] = hs.id
	}
	return out
}

// checkStreams runs each stream's reference over the longest input any
// sub-run sent (concurrently, one goroutine per stream) and judges every
// sub-run's windows against it: every sub-run stops on a publication
// position, so its windows are a prefix of the reference's.
func checkStreams(streams []*hostedStream, runs [][]*streamRun) (out verdict) {
	checks := make([]*check, len(streams))
	var wg sync.WaitGroup
	for i, hs := range streams {
		i, hs := i, hs
		n := 0
		for _, r := range runs {
			n = max(n, r[i].sent)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			checks[i] = reference(hs.spec.pipelineConfig(), n, readerSource(hs.lines, n))
		}()
	}
	wg.Wait()
	for i := range streams {
		out.judge(checks[i])
		for _, r := range runs {
			out.count(checks[i], r[i].cap, r[i].sent)
			out.attempted += r[i].lost
			out.failed += r[i].lost
		}
	}
	return out
}

// verdict aggregates output checks across streams and sub-runs.
type verdict struct {
	attempted, failed int
	windowsOK         int
	avgPred, ropp     sample
	digest            uint64
	problems          []string
}

// judge folds one stream's reference: its digest and the utility of what
// it published.
func (v *verdict) judge(ck *check) {
	if ck.err != nil {
		v.problems = append(v.problems, ck.err.Error())
		return
	}
	v.avgPred.xs = append(v.avgPred.xs, ck.avgPred.xs...)
	v.ropp.xs = append(v.ropp.xs, ck.ropp.xs...)
	v.digest = v.digest*1099511628211 ^ digest(ck.positions, ck.ref)
}

// count judges the windows one sub-run published for an n-record stream.
func (v *verdict) count(ck *check, got *capture, n int) {
	v.attempted += n
	if ck.err != nil {
		v.failed += n
		return
	}
	failed, ok := ck.failedRecords(got, n)
	v.failed += failed
	v.windowsOK += ok
	if failed > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d records in windows that differ from the reference or break the ε ceiling", failed))
	}
	if got.mismatch > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d windows re-published with different bytes", got.mismatch))
	}
}

// freshDir returns an empty directory under root.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// replayInputs describes the service streams for the serial layer replay:
// each stream's longest input, the one the reference judged.
func replayInputs(streams []*hostedStream, runs [][]*streamRun, batch int) []replayInput {
	out := make([]replayInput, len(streams))
	for i, hs := range streams {
		n := 0
		for _, r := range runs {
			n = max(n, r[i].sent)
		}
		out[i] = replayInput{
			cfg: hs.spec.pipelineConfig(), n: n, lines: hs.lines,
			batch: batch, durable: true, fullEvery: checkpointFullEvery,
		}
	}
	return out
}
