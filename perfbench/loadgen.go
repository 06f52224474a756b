package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// flow counts the HTTP outcomes of a load generator: requests sent and
// flow-control refusals (429 backpressure, 503 overload) it retried.
type flow struct {
	requests, refused429, refused503 atomic.Int64
}

// ingestClient delivers corpus lines to one hosted stream over HTTP with
// the ?offset resume protocol.
type ingestClient struct {
	hc   *http.Client
	url  string // .../v1/streams/{id}/records
	flow *flow
}

type ingestReply struct {
	AcceptedLines uint64 `json:"accepted_lines"`
	Error         string `json:"error"`
}

// errFatal marks a non-retryable ingest outcome (409, 500, 4xx, transport
// error): the lines it leaves unacknowledged count as failed operations.
type errFatal struct{ msg string }

func (e *errFatal) Error() string { return e.msg }

// retryPause is how long the client waits after a 429/503 before resending
// the unacknowledged rest of a batch. The server's Retry-After of one
// second is a hint for an idle client; a benchmark client that honoured it
// would measure its own sleep rather than the server.
const retryPause = 2 * time.Millisecond

// send delivers lines [from, to) of c and returns once the stream's
// accepted_lines covers the last of them. Flow-control refusals are
// retried from the server's accepted_lines; anything else is returned as
// *errFatal.
func (c *ingestClient) send(ctx context.Context, lines *corpus, from, to int) error {
	off := from
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.url+"?offset="+strconv.Itoa(off), bytes.NewReader(lines.slice(off, to)))
		if err != nil {
			return &errFatal{err.Error()}
		}
		c.flow.requests.Add(1)
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return &errFatal{fmt.Sprintf("transport: %v", err)}
		}
		var rep ingestReply
		derr := json.NewDecoder(resp.Body).Decode(&rep)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if derr != nil {
			return &errFatal{fmt.Sprintf("decoding ingest reply (HTTP %d): %v", resp.StatusCode, derr)}
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if rep.AcceptedLines >= uint64(to) {
				return nil
			}
			return &errFatal{fmt.Sprintf("2xx acknowledged %d lines, want %d", rep.AcceptedLines, to)}
		case http.StatusTooManyRequests:
			c.flow.refused429.Add(1)
		case http.StatusServiceUnavailable:
			c.flow.refused503.Add(1)
		default:
			return &errFatal{fmt.Sprintf("HTTP %d: %s", resp.StatusCode, rep.Error)}
		}
		if rep.AcceptedLines >= uint64(to) {
			return nil
		}
		if int(rep.AcceptedLines) > off {
			off = int(rep.AcceptedLines)
		}
		select {
		case <-time.After(retryPause):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// openLoop is a fixed-rate schedule: batch k is due at start + k·interval
// (plus jitter[k], when set) whatever happened to batches before it. A
// sender that falls behind sends the overdue batches back to back; it
// never shifts the schedule, so a stall in the system shows up as latency
// (timed from the due time) of every batch that had to wait, and as
// generator lateness.
type openLoop struct {
	start    time.Time
	interval time.Duration
	batches  int
	jitter   []time.Duration
}

func (o openLoop) due(k int) time.Time {
	t := o.start.Add(time.Duration(k) * o.interval)
	if o.jitter != nil {
		t = t.Add(o.jitter[k])
	}
	return t
}

// withJitter offsets every due time by a seeded uniform draw in
// [0, interval/2). Arrivals keep the offered rate and stay at least half
// an interval apart, but no longer sit at one fixed phase of any periodic
// activity on the host: a strictly periodic schedule locks onto such a
// phase for a whole run, which shifts every latency of that run alike.
func (o openLoop) withJitter(seed uint64) openLoop {
	r := rand.New(rand.NewPCG(seed, 0x6a6974746572))
	o.jitter = make([]time.Duration, o.batches)
	for k := range o.jitter {
		o.jitter[k] = time.Duration(r.Int64N(int64(o.interval / 2)))
	}
	return o
}

// run sends every batch in order on the calling goroutine. ack receives
// each batch's latency from its due time to its acknowledgement, late the
// delay between its due time and the moment it was actually sent. The
// first error stops the run and is returned with the index of the batch
// that failed.
func (o openLoop) run(ctx context.Context, send func(k int) error, ack, late *sample) (int, error) {
	for k := 0; k < o.batches; k++ {
		due := o.due(k)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return k, ctx.Err()
			}
		}
		sent := time.Now()
		late.add(ms(sent.Sub(due)))
		if err := send(k); err != nil {
			return k, err
		}
		ack.add(ms(time.Since(due)))
	}
	return o.batches, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
