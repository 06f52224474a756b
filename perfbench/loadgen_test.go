package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// ackServer answers ingest requests like the server's happy path: every
// line is accepted and accepted_lines is offset + lines. Request number
// stallAt (0-based) is held for stall before it is answered.
func ackServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off, err := strconv.Atoi(r.URL.Query().Get("offset"))
		if err != nil {
			t.Errorf("request without offset: %v", r.URL)
		}
		body, _ := io.ReadAll(r.Body)
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"accepted_lines": %d}`, off+bytes.Count(body, []byte("\n")))
	}))
}

func testCorpus(lines int) *corpus {
	c := &corpus{}
	for i := 0; i < lines; i++ {
		c.text = append(c.text, "1 2 3\n"...)
		c.ends = append(c.ends, len(c.text))
	}
	return c
}

// TestOpenLoopStallShowsInLatencyNotSchedule stalls one request of an
// open-loop run and checks that the schedule holds: the batches due during
// the stall are sent late and carry the stall in their latency (timed from
// their due time), and the sender catches up instead of shifting every
// later due time.
func TestOpenLoopStallShowsInLatencyNotSchedule(t *testing.T) {
	const (
		batches  = 30
		interval = 10 * time.Millisecond
		stall    = 200 * time.Millisecond
		stallAt  = 3
	)
	srv := ackServer(t, stallAt, stall)
	defer srv.Close()
	cl := &ingestClient{hc: srv.Client(), url: srv.URL, flow: &flow{}}
	lines := testCorpus(2 * batches)
	loop := openLoop{start: time.Now(), interval: interval, batches: batches}
	var ack, late sample
	sent, err := loop.run(context.Background(), func(k int) error {
		return cl.send(context.Background(), lines, 2*k, 2*k+2)
	}, &ack, &late)
	if err != nil || sent != batches {
		t.Fatalf("run sent %d of %d batches: %v", sent, batches, err)
	}
	finished := time.Since(loop.start)
	// Samples are in batch order until the first percentile call sorts them.
	acks, lates := append([]float64(nil), ack.xs...), append([]float64(nil), late.xs...)

	stallMS := ms(stall)
	if acks[stallAt] < stallMS {
		t.Errorf("stalled batch latency %.1fms, want >= %.0fms", acks[stallAt], stallMS)
	}
	// The batch due right after the stalled one waited for it: the wait is
	// generator lateness and part of its latency from the due time.
	next := stallAt + 1
	if want := stallMS - ms(interval) - 5; lates[next] < want || acks[next] < lates[next] {
		t.Errorf("batch %d: late %.1fms, latency %.1fms; want late >= %.0fms and latency >= late",
			next, lates[next], acks[next], want)
	}
	overStall := 0
	for _, a := range acks {
		if a >= stallMS/2 {
			overStall++
		}
	}
	if overStall < 5 {
		t.Errorf("%d batches carry the stall in their latency, want the stalled one and those due during it", overStall)
	}
	// The schedule did not slip: the last batch went out close to its own
	// due time, and the whole run ended well before due times shifted by
	// the stall would have allowed.
	if lates[batches-1] > 50 {
		t.Errorf("last batch sent %.1fms late: the schedule slipped", lates[batches-1])
	}
	if slipped := time.Duration(batches)*interval + stall; finished >= slipped {
		t.Errorf("run took %v, as long as a schedule shifted by the stall (%v)", finished, slipped)
	}
}

// TestIngestClientRetriesFlowControl answers 429 with partial acceptance
// and checks the client resumes from accepted_lines until the batch is
// acknowledged, counting the refusal.
func TestIngestClientRetriesFlowControl(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.Atoi(r.URL.Query().Get("offset"))
		body, _ := io.ReadAll(r.Body)
		n := bytes.Count(body, []byte("\n"))
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"accepted_lines": %d}`, off+n/2)
			return
		}
		fmt.Fprintf(w, `{"accepted_lines": %d}`, off+n)
	}))
	defer srv.Close()
	fl := &flow{}
	cl := &ingestClient{hc: srv.Client(), url: srv.URL, flow: fl}
	if err := cl.send(context.Background(), testCorpus(10), 0, 10); err != nil {
		t.Fatal(err)
	}
	if fl.requests.Load() != 2 || fl.refused429.Load() != 1 {
		t.Errorf("requests=%d refused429=%d, want 2 and 1", fl.requests.Load(), fl.refused429.Load())
	}
}
