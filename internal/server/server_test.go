package server

// The differential suite: the server's isolation contract is that every
// hosted stream publishes windows byte-identical to an independent
// single-process pipeline run over the same records — with concurrent
// neighbors, injected faults, in-process restarts, and process
// crash-and-resume all in play. CI runs these race-enabled.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// testParams are the known-feasible calibration used throughout
// (ε/δ = 0.25 ≥ K²/2C² = 0.125).
func testConfig(id string, seed uint64) StreamConfig {
	return StreamConfig{
		ID:           id,
		Window:       100,
		Epsilon:      0.1,
		Delta:        0.4,
		MinSupport:   10,
		VulnSupport:  5,
		Scheme:       "hybrid",
		Lambda:       0.4,
		Seed:         seed,
		PublishEvery: 50,
		Workers:      2,
		History:      100,
	}
}

// genInput renders n synthetic records in the one-transaction-per-line
// wire format (numeric tokens).
func genInput(t *testing.T, seed uint64, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := data.WriteTransactions(&buf, data.WebViewLike(seed).Generate(n), nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// withBadLines splices a malformed line (NUL byte in a token) after every
// nth record, exercising the bad-record budget end to end.
func withBadLines(input string, every int) string {
	lines := strings.Split(strings.TrimRight(input, "\n"), "\n")
	var out strings.Builder
	for i, ln := range lines {
		out.WriteString(ln)
		out.WriteByte('\n')
		if (i+1)%every == 0 {
			out.WriteString("bad\x00token\n")
		}
	}
	return out.String()
}

// renderWindow matches stream.emit's rendering byte for byte.
func renderWindow(t *testing.T, w pipeline.Window, vocab *data.Vocabulary) string {
	t.Helper()
	entries := make([]data.PublishedEntry, 0, len(w.Output.Items))
	for _, it := range w.Output.Items {
		entries = append(entries, data.PublishedEntry{Support: it.Support, Set: it.Set})
	}
	var buf bytes.Buffer
	if err := data.WritePublished(&buf, entries, vocab); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// referenceWindows runs the standalone pipeline over input — no server, no
// faults, no checkpoints — and returns position → rendered window. It runs
// with one worker whatever cfg.Workers says: output does not depend on the
// worker count, so hosted streams at any count are pinned to the same bytes.
func referenceWindows(t *testing.T, cfg StreamConfig, input string) map[int]string {
	t.Helper()
	scheme, err := core.SchemeByName(cfg.Scheme, cfg.Lambda, cfg.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := pipeline.Config{
		WindowSize:    cfg.Window,
		Params:        paramsOf(cfg),
		Scheme:        scheme,
		Seed:          cfg.Seed,
		ClosedOnly:    cfg.ClosedOnly,
		Raw:           cfg.Raw,
		PublishEvery:  cfg.PublishEvery,
		Workers:       1,
		MaxBadRecords: cfg.MaxBadRecords,
	}
	p, err := pipeline.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	vocab := data.NewVocabulary()
	out := map[int]string{}
	_, err = p.RunContext(context.Background(),
		pipeline.ReaderSource(strings.NewReader(input), vocab),
		func(w pipeline.Window) error {
			out[w.Position] = renderWindow(t, w, vocab)
			return nil
		})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return out
}

// ---- HTTP test client ----

type tClient struct {
	t    *testing.T
	base string
}

// newTestServer builds a Server, mounts its routes on an httptest server,
// and arranges teardown.
func newTestServer(t *testing.T, opts Options) (*Server, *tClient) {
	t.Helper()
	srv := New(opts)
	mux := http.NewServeMux()
	srv.Routes(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Abort)
	return srv, &tClient{t: t, base: hs.URL}
}

func (c *tClient) do(method, path string, body io.Reader) (*http.Response, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, b
}

func (c *tClient) create(cfg StreamConfig) StreamStatus {
	c.t.Helper()
	b, err := json.Marshal(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, body := c.do("POST", "/v1/streams", bytes.NewReader(b))
	if resp.StatusCode != http.StatusCreated {
		c.t.Fatalf("create %s: %d %s", cfg.ID, resp.StatusCode, body)
	}
	var st StreamStatus
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

// ingestAll streams input to a stream in chunks, resuming from the
// accepted offset on 429/503 — the documented client retry contract.
func (c *tClient) ingestAll(id, input string) {
	c.t.Helper()
	lines := strings.Split(strings.TrimRight(input, "\n"), "\n")
	off := 0
	deadline := time.Now().Add(60 * time.Second)
	for off < len(lines) {
		end := off + 100
		if end > len(lines) {
			end = len(lines)
		}
		chunk := strings.Join(lines[off:end], "\n") + "\n"
		resp, body := c.do("POST", "/v1/streams/"+id+"/records", strings.NewReader(chunk))
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			c.t.Fatalf("ingest %s: bad response %q", id, body)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			off = end
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			off += ir.Accepted
			time.Sleep(5 * time.Millisecond)
		default:
			c.t.Fatalf("ingest %s: %d %s", id, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("ingest %s: stuck at line %d/%d", id, off, len(lines))
		}
	}
}

func (c *tClient) closeStream(id string) {
	c.t.Helper()
	resp, body := c.do("POST", "/v1/streams/"+id+"/close", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("close %s: %d %s", id, resp.StatusCode, body)
	}
}

func (c *tClient) status(id string) (int, StreamStatus) {
	c.t.Helper()
	resp, body := c.do("GET", "/v1/streams/"+id, nil)
	var st StreamStatus
	json.Unmarshal(body, &st)
	return resp.StatusCode, st
}

func (c *tClient) waitState(id, want string, timeout time.Duration) StreamStatus {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, st := c.status(id)
		if code != http.StatusOK {
			c.t.Fatalf("status %s: %d", id, code)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("stream %s stuck in %q (want %q): %+v", id, st.State, want, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *tClient) windows(id string) map[int]string {
	c.t.Helper()
	resp, body := c.do("GET", "/v1/streams/"+id+"/windows", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("windows %s: %d %s", id, resp.StatusCode, body)
	}
	var out struct {
		Windows   []publishedWindow `json:"windows"`
		Truncated bool              `json:"truncated"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		c.t.Fatal(err)
	}
	m := map[int]string{}
	for _, w := range out.Windows {
		m[w.Position] = w.Body
	}
	return m
}

// ---- the differential identity suite ----

// diffSpec is one hosted stream of the differential matrix plus its fault
// injection. Lifetime counters (shared across restarts) make each injected
// fault one-shot, so a restarted run heals instead of looping.
type diffSpec struct {
	cfg   StreamConfig
	input string

	sinkFailAt  int64             // fail (permanently) the Nth emit of the stream's lifetime
	sinkPanicAt int64             // panic on the Nth emit
	srcFailAt   int64             // fail (permanently) the Nth source read
	transient   *faultinject.Plan // per-run retryable sink faults

	sinkCalls atomic.Int64
	srcCalls  atomic.Int64
}

// TestDifferentialIdentity hosts nine concurrent streams — clean ones
// across schemes and worker counts, one fed malformed lines, one with
// retried transient sink faults, and three that hard-fail (sink error,
// sink panic, source error) and must restart from checkpoint + replay —
// and pins every stream's published windows byte-identical to independent
// single-stream reference runs.
func TestDifferentialIdentity(t *testing.T) {
	specs := []*diffSpec{
		{cfg: withScheme(testConfig("clean-basic", 1), "basic", 1)},
		{cfg: testConfig("clean-hybrid", 2)},
		{cfg: withScheme(testConfig("clean-ratio", 3), "ratio", 8)},
		{cfg: withScheme(testConfig("clean-order", 4), "order", 1)},
		{cfg: badBudget(testConfig("bad-lines", 5))},
		{cfg: withRetries(testConfig("transient-sink", 6), 5),
			transient: &faultinject.Plan{FailEvery: 4, MaxFailures: 3, StallOn: 2, Stall: 20 * time.Millisecond}},
		{cfg: testConfig("hard-sink", 7), sinkFailAt: 3},
		{cfg: testConfig("panic-sink", 8), sinkPanicAt: 2},
		{cfg: testConfig("hard-source", 9), srcFailAt: 350},
	}
	byID := map[string]*diffSpec{}
	inputs := map[string]string{}
	refs := map[string]map[int]string{}
	for i, sp := range specs {
		sp.cfg.CheckpointEvery = 1
		byID[sp.cfg.ID] = sp
		input := genInput(t, uint64(100+i), 500)
		if sp.cfg.ID == "bad-lines" {
			input = withBadLines(input, 40)
		}
		inputs[sp.cfg.ID] = input
		refs[sp.cfg.ID] = referenceWindows(t, sp.cfg, input)
		if len(refs[sp.cfg.ID]) == 0 {
			t.Fatalf("reference run for %s published nothing", sp.cfg.ID)
		}
	}

	opts := Options{
		DataDir:         t.TempDir(),
		Registry:        telemetry.NewRegistry(),
		BreakerFailures: 4, // one-shot faults must restart, not quarantine
		RestartBackoff:  time.Millisecond,
		WrapSource: func(id string, src pipeline.RecordSource) pipeline.RecordSource {
			sp := byID[id]
			if sp == nil || sp.srcFailAt == 0 {
				return src
			}
			return sourceFunc(func() (itemset.Itemset, error) {
				if sp.srcCalls.Add(1) == sp.srcFailAt {
					return itemset.Itemset{}, fmt.Errorf("injected permanent source failure")
				}
				return src.Next()
			})
		},
		WrapSink: func(id string, emit func(pipeline.Window) error) func(pipeline.Window) error {
			sp := byID[id]
			if sp == nil {
				return emit
			}
			if sp.transient != nil {
				emit = faultinject.NewSink(emit, *sp.transient).Emit
			}
			if sp.sinkFailAt == 0 && sp.sinkPanicAt == 0 {
				return emit
			}
			return func(w pipeline.Window) error {
				switch n := sp.sinkCalls.Add(1); {
				case n == sp.sinkFailAt:
					return fmt.Errorf("injected permanent sink failure at emit %d", n)
				case n == sp.sinkPanicAt:
					panic("injected sink panic")
				}
				return emit(w)
			}
		},
	}
	_, c := newTestServer(t, opts)

	var wg sync.WaitGroup
	for _, sp := range specs {
		c.create(sp.cfg)
		sp := sp
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.ingestAll(sp.cfg.ID, inputs[sp.cfg.ID])
			c.closeStream(sp.cfg.ID)
		}()
	}
	wg.Wait()

	for _, sp := range specs {
		id := sp.cfg.ID
		st := c.waitState(id, StateDone, 60*time.Second)
		got := c.windows(id)
		ref := refs[id]
		if len(got) != len(ref) {
			t.Errorf("%s: published %d windows, reference published %d", id, len(got), len(ref))
		}
		for pos, want := range ref {
			if got[pos] != want {
				t.Errorf("%s: window at position %d differs from the reference run\n--- server ---\n%s--- reference ---\n%s",
					id, pos, got[pos], want)
			}
		}
		faulted := sp.sinkFailAt != 0 || sp.sinkPanicAt != 0 || sp.srcFailAt != 0
		if faulted && st.Restarts == 0 {
			t.Errorf("%s: fault was injected but the stream never restarted", id)
		}
		if !faulted && st.Restarts != 0 {
			t.Errorf("%s: clean stream restarted %d times", id, st.Restarts)
		}
	}
}

// TestCrashRestartResume aborts a server mid-stream (simulated crash: no
// final checkpoints) and resumes the stream in a fresh server over the
// same checkpoint root with a full client-side replay; the resumed tail
// must be byte-identical to the uninterrupted reference run.
func TestCrashRestartResume(t *testing.T) {
	root := t.TempDir()
	cfg := testConfig("s", 42)
	cfg.CheckpointEvery = 1
	input := genInput(t, 7, 600)
	ref := referenceWindows(t, cfg, input)

	srv1, c1 := newTestServer(t, Options{DataDir: root})
	c1.create(cfg)
	lines := strings.SplitAfter(strings.TrimRight(input, "\n")+"\n", "\n")
	c1.ingestAll("s", strings.Join(lines[:400], ""))
	// Wait until at least one checkpoint beyond the first window exists so
	// the resume actually fast-forwards.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := c1.status("s")
		if st.CheckpointRecords >= uint64(cfg.Window) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after 400 records: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv1.Abort() // crash: queued tail and any unsaved progress are lost

	_, c2 := newTestServer(t, Options{DataDir: root})
	rcfg := cfg
	rcfg.Resume = true
	st := c2.create(rcfg)
	if st.CheckpointRecords < uint64(cfg.Window) {
		t.Fatalf("resume did not load the checkpoint: %+v", st)
	}
	c2.ingestAll("s", input) // resume contract: replay from record 0
	c2.closeStream("s")
	c2.waitState("s", StateDone, 60*time.Second)

	got := c2.windows("s")
	if len(got) == 0 {
		t.Fatal("resumed stream republished nothing")
	}
	for pos, body := range got {
		if ref[pos] != body {
			t.Errorf("resumed window at position %d differs from the reference run", pos)
		}
	}
	final := 600
	if _, ok := got[final]; !ok {
		t.Errorf("resumed stream never published the final window at %d (got %d windows)", final, len(got))
	}
}

// ---- small config helpers ----

func paramsOf(cfg StreamConfig) core.Params {
	return core.Params{
		Epsilon: cfg.Epsilon, Delta: cfg.Delta,
		MinSupport: cfg.MinSupport, VulnSupport: cfg.VulnSupport,
	}
}

func withScheme(cfg StreamConfig, scheme string, workers int) StreamConfig {
	cfg.Scheme = scheme
	cfg.Workers = workers
	return cfg
}

func withRetries(cfg StreamConfig, retries int) StreamConfig {
	cfg.EmitRetries = retries
	return cfg
}

func badBudget(cfg StreamConfig) StreamConfig {
	cfg.MaxBadRecords = -1
	return cfg
}

// sourceFunc adapts a closure to pipeline.RecordSource.
type sourceFunc func() (itemset.Itemset, error)

func (f sourceFunc) Next() (itemset.Itemset, error) { return f() }
