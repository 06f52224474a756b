package server

// A/B identity for the observability surface itself: a server-hosted
// stream with the flight recorder and the telemetry registry fully on
// must publish windows byte-identical to the same stream with both off —
// and to a standalone reference run. This is the "observation-only"
// guarantee the tentpole instrumentation (ingest spans, latency
// histograms, end-to-end stamps) rides on. CI runs it race-enabled.

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// runHosted hosts one stream, feeds it input, drains it, and returns its
// published windows (position → rendered body) plus the client for any
// follow-up requests.
func runHosted(t *testing.T, cfg StreamConfig, input string, reg *telemetry.Registry) (map[int]string, *tClient) {
	t.Helper()
	_, client := newTestServer(t, Options{Registry: reg})
	client.create(cfg)
	client.ingestAll(cfg.ID, input)
	client.closeStream(cfg.ID)
	client.waitState(cfg.ID, StateDone, 30*time.Second)
	return client.windows(cfg.ID), client
}

func TestServerTracingABIdentity(t *testing.T) {
	cfg := testConfig("ab-observe", 77)
	input := genInput(t, 77, 600)
	ref := referenceWindows(t, cfg, input)
	if len(ref) == 0 {
		t.Fatal("reference run published no windows")
	}

	// A: observability fully off — no registry, no flight recorder.
	cfgOff := cfg
	cfgOff.TraceWindows = 0
	winOff, _ := runHosted(t, cfgOff, input, nil)

	// B: observability fully on — registry plus a 64-window flight
	// recorder capturing ingest request spans and window spans.
	cfgOn := cfg
	cfgOn.TraceWindows = 64
	winOn, clientOn := runHosted(t, cfgOn, input, telemetry.NewRegistry())

	if len(winOff) != len(ref) || len(winOn) != len(ref) {
		t.Fatalf("window counts diverge: off=%d on=%d ref=%d", len(winOff), len(winOn), len(ref))
	}
	for pos, want := range ref {
		if winOff[pos] != want {
			t.Errorf("window %d: tracing-off body diverges from reference", pos)
		}
		if winOn[pos] != want {
			t.Errorf("window %d: tracing-on body diverges from reference", pos)
		}
	}

	// The traced stream's export must put an ingest request span and a
	// window span in the same Perfetto timeline: window roots on their
	// per-window tracks, ingest roots on the shared tid-0 "ingest" lane.
	resp, body := clientOn.do("GET", "/v1/streams/"+cfgOn.ID+"/trace", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("trace export: %d %s", resp.StatusCode, body)
	}
	var export struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &export); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var sawIngest, sawWindow bool
	ingestPid, windowPid := -1, -1
	for _, ev := range export.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "ingest":
			sawIngest = true
			ingestPid = ev.Pid
			if ev.Tid != 0 {
				t.Errorf("ingest root %q on tid %d, want the shared tid-0 lane", ev.Name, ev.Tid)
			}
		case "window":
			sawWindow = true
			windowPid = ev.Pid
		}
	}
	if !sawIngest || !sawWindow {
		t.Fatalf("trace export missing root spans: ingest=%v window=%v (%d events)",
			sawIngest, sawWindow, len(export.TraceEvents))
	}
	if ingestPid != windowPid {
		t.Errorf("ingest (pid %d) and window (pid %d) roots are in different processes; "+
			"one timeline must show both", ingestPid, windowPid)
	}
}

// TestServerTracingIngestPhases pins the four-phase timing of a durable
// ingest request: a traced request's root has exactly the parse, wal.append,
// wal.fsync and enqueue.wait children, in that order, tiling the root without
// overlap; and with a registry but no tracer, the request-latency and
// WAL-append histograms each observe once per accepted request.
func TestServerTracingIngestPhases(t *testing.T) {
	const requests = 3
	input := strings.Split(strings.TrimRight(genInput(t, 5, 90), "\n"), "\n")
	feed := func(c *tClient, id string) {
		t.Helper()
		for r := 0; r < requests; r++ {
			chunk := strings.Join(input[30*r:30*(r+1)], "\n") + "\n"
			resp, body := c.do("POST", "/v1/streams/"+id+"/records", strings.NewReader(chunk))
			if resp.StatusCode != 200 {
				t.Fatalf("ingest request %d: %d %s", r, resp.StatusCode, body)
			}
		}
	}

	t.Run("spans", func(t *testing.T) {
		srv, c := newTestServer(t, Options{DataDir: t.TempDir()})
		cfg := testConfig("phases", 5)
		cfg.TraceWindows = 64
		c.create(cfg)
		feed(c, cfg.ID)
		var ingests int
		for _, rec := range srv.get(cfg.ID).tracer.Snapshot() {
			if rec.Kind != "ingest" {
				continue
			}
			ingests++
			var names []string
			for _, sp := range rec.Spans {
				names = append(names, sp.Name)
			}
			if got, want := strings.Join(names, ","), "parse,wal.append,wal.fsync,enqueue.wait"; got != want {
				t.Fatalf("ingest %d children = %s, want %s", rec.Window, got, want)
			}
			at := rec.Start
			for _, sp := range rec.Spans {
				if sp.Start < at {
					t.Errorf("ingest %d: %s starts %v before the previous phase ended", rec.Window, sp.Name, at-sp.Start)
				}
				at = sp.Start + sp.Dur
			}
			if end := rec.Start + rec.Dur; at > end {
				t.Errorf("ingest %d: children end %v past the root", rec.Window, at-end)
			}
		}
		if ingests != requests {
			t.Errorf("flight recorder holds %d ingest roots, want %d", ingests, requests)
		}
	})

	t.Run("histograms", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		_, c := newTestServer(t, Options{DataDir: t.TempDir(), Registry: reg})
		cfg := testConfig("phases", 5)
		c.create(cfg)
		feed(c, cfg.ID)
		for _, name := range []string{MetricIngestSeconds, MetricWALAppendSeconds} {
			var count uint64
			for _, f := range reg.Snapshot() {
				if f.Name == name {
					for _, s := range f.Series {
						count += s.Count
					}
				}
			}
			if count != requests {
				t.Errorf("%s_count = %d, want one per accepted request (%d)", name, count, requests)
			}
		}
	})
}
