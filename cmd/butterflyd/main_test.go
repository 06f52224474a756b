package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

func validFlags() flagValues {
	return flagValues{
		addr:             ":0",
		maxStreams:       8,
		maxInflightBytes: 1 << 20,
		queueDepth:       16,
		history:          4,
		breakerFailures:  3,
		restartBackoff:   time.Millisecond,
		replayLimit:      1024,
		drainTimeout:     time.Second,
		ckptFullEvery:    16,
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(validFlags()); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*flagValues)
		want   string
	}{
		{"empty addr", func(v *flagValues) { v.addr = "" }, "-addr"},
		{"zero max-streams", func(v *flagValues) { v.maxStreams = 0 }, "-max-streams"},
		{"negative max-streams", func(v *flagValues) { v.maxStreams = -3 }, "-max-streams"},
		{"zero inflight bytes", func(v *flagValues) { v.maxInflightBytes = 0 }, "-max-inflight-bytes"},
		{"zero queue depth", func(v *flagValues) { v.queueDepth = 0 }, "-queue-depth"},
		{"zero history", func(v *flagValues) { v.history = 0 }, "-history"},
		{"zero breaker failures", func(v *flagValues) { v.breakerFailures = 0 }, "-breaker-failures"},
		{"zero restart backoff", func(v *flagValues) { v.restartBackoff = 0 }, "-restart-backoff"},
		{"negative restart backoff", func(v *flagValues) { v.restartBackoff = -time.Second }, "-restart-backoff"},
		{"zero replay limit", func(v *flagValues) { v.replayLimit = 0 }, "-replay-limit"},
		{"zero drain timeout", func(v *flagValues) { v.drainTimeout = 0 }, "-drain-timeout"},
		{"zero checkpoint-full-every", func(v *flagValues) { v.ckptFullEvery = 0 }, "-checkpoint-full-every"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := validFlags()
			tc.mutate(&v)
			err := validateFlags(v)
			if err == nil {
				t.Fatalf("%+v passed validation", v)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the flag %q", err, tc.want)
			}
		})
	}
}

func TestRunFlagErrors(t *testing.T) {
	for i, args := range [][]string{
		{"-max-streams", "0"},
		{"-queue-depth", "-1"},
		{"-drain-timeout", "0s"},
		{"-restart-backoff", "-5ms"},
		{"-no-such-flag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v) did not error", i, args)
		}
	}
}

// TestRunEndToEnd boots the daemon on :0, drives a stream through the full
// lifecycle over real HTTP (create, ingest, close, windows), then delivers
// SIGTERM and expects a clean drain with the summary line on stdout.
func TestRunEndToEnd(t *testing.T) {
	addrc := make(chan string, 1)
	serverStarted = func(addr string) { addrc <- addr }
	defer func() { serverStarted = nil }()

	var out bytes.Buffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-data-dir", t.TempDir(),
			"-drain-timeout", "30s",
			"-log-json",
		}, &out)
	}()

	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	// serverStarted fires as soon as the listener binds — before boot
	// recovery; wait for readiness so the /v1 calls below are not refused.
	waitReady(t, base, 10*time.Second)

	post := func(path, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: %d %s, want %d", path, resp.StatusCode, b, want)
		}
		return b
	}

	post("/v1/streams", `{"id":"e2e","window":50,"epsilon":0.1,"delta":0.4,"min_support":5,"vuln_support":2,"seed":7,"publish_every":50,"checkpoint_every":1}`, http.StatusCreated)

	var input strings.Builder
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&input, "i%d i%d i%d\n", i%7, (i+1)%7, (i+3)%11)
	}
	var ir struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(post("/v1/streams/e2e/records", input.String(), http.StatusOK), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 150 {
		t.Fatalf("accepted %d records, want 150", ir.Accepted)
	}
	post("/v1/streams/e2e/close", "", http.StatusOK)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/streams/e2e/windows")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var wr struct {
			Windows []json.RawMessage `json:"windows"`
		}
		if err := json.Unmarshal(b, &wr); err != nil {
			t.Fatalf("windows response %s: %v", b, err)
		}
		if len(wr.Windows) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d windows published, want 3: %s", len(wr.Windows), b)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// /metrics rides on the same listener as the control plane.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "butterfly_server_streams") {
		t.Errorf("/metrics missing server gauges:\n%.400s", mb)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained 1 streams") || !strings.Contains(out.String(), "clean=true") {
		t.Errorf("unexpected drain summary: %q", out.String())
	}
}
