package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/server"
)

// service-paced: an open loop at one fixed offered rate, far below the
// knee, on two POS-like streams with durable acceptance, publication every
// 25 records and a checkpoint every window (delta frames between full
// anchors). It measures freshness under light load, where latency is the
// sum of the blocking steps — ack fsync, queue, Moment slide, DP, emit,
// checkpoint — and long baskets over a 1,657-item alphabet change CET
// size, WAL frame size and FEC counts relative to the WebView workloads.
var pacedSpec = streamSpec{
	window: 2000, publishEvery: 25, minSupport: 40, vulnSupport: 5,
	epsilon: 0.1, delta: 0.4, lambda: 0.4,
	queueDepth: 1024,
}

const (
	pacedStreams = 2
	// pacedBatch is the lines per POST; it equals publish_every, so each
	// batch completes one window and every sub-run ends on a publication
	// position.
	pacedBatch = 25
)

// pacedRate is the offered load per stream in records per second (see
// README.md for the knee it sits below).
var pacedRate = 4000

func runServicePaced(env *env) (*result, error) {
	rate := pacedRate
	if env.rate > 0 {
		rate = env.rate
	}
	batches := int(env.subSeconds().Seconds() * float64(rate) / pacedBatch)
	// The schedule starts with each window already full (a warm-up fills
	// it), so every measured second publishes.
	n := pacedSpec.window + batches*pacedBatch
	streams := make([]*hostedStream, pacedStreams)
	for i := range streams {
		spec := pacedSpec
		spec.seed = env.seed*37 + uint64(i)
		streams[i] = &hostedStream{
			id:    fmt.Sprintf("pos-%d", i),
			spec:  spec,
			lines: genCorpus(recordsFor(data.POSLike, 1013+uint64(i), env.seed), n),
		}
	}
	interval := time.Duration(float64(time.Second) * pacedBatch / float64(rate))
	res := &result{}
	var runs [][]*streamRun
	for r := -1; r < subRuns; r++ {
		b := batches
		if r < 0 {
			b /= 2 // warm-up, discarded
		}
		var sub *subRun
		var sr []*streamRun
		err := env.gate.measure(func() error {
			sr = newStreamRuns(len(streams))
			var err error
			sub, err = pacedSubRun(env, streams, sr, interval, b, uint64(r+1))
			return err
		})
		if err != nil {
			return nil, err
		}
		if r < 0 {
			continue
		}
		res.subs = append(res.subs, sub)
		runs = append(runs, sr)
	}
	res.verdict = checkStreams(streams, runs)
	res.inputs = replayInputs(streams, runs, pacedBatch)
	return res, nil
}

// pacedSubRun sets up a fresh server with the two streams (setupTrials
// times; every server but the last is aborted), fills their windows, and
// runs the open-loop schedule for one sub-run.
func pacedSubRun(env *env, streams []*hostedStream, runs []*streamRun, interval time.Duration, batches int, r uint64) (*subRun, error) {
	sub := &subRun{}
	phase := startPhase()
	var srv *server.Server
	for trial := 0; trial < setupTrials; trial++ {
		dir, err := freshDir(env.work, "paced")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv = server.New(serverOptions(dir, captures(streams, runs), env.hooks))
		for _, hs := range streams {
			if _, err := srv.Create(hs.spec.streamConfig(hs.id)); err != nil {
				return nil, err
			}
		}
		sub.setup.add(time.Since(t0).Seconds())
		if trial < setupTrials-1 {
			srv.Abort()
		}
	}
	sv, err := listen(srv)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	hc := httpClient(pacedStreams)
	defer hc.CloseIdleConnections()
	var fl flow

	// Warm-up: fill each window before the schedule starts, so the
	// measured time is steady-state publication.
	for i, hs := range streams {
		cl := sv.client(hc, hs.id, &fl)
		for off := 0; off < hs.spec.window; off += 500 {
			if err := cl.send(context.Background(), hs.lines, off, min(off+500, hs.spec.window)); err != nil {
				return nil, err
			}
		}
		runs[i].sent = hs.spec.window
	}
	stopPoll := env.hooks.pollStatus(srv, ids(streams))

	start := time.Now().Add(10 * time.Millisecond)
	loops := make([]openLoop, len(streams))
	acks := make([]sample, len(streams))
	lates := make([]sample, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, hs := range streams {
		i, hs, run := i, hs, runs[i]
		// The streams' schedules interleave: stream i starts i/len(streams)
		// of an interval later.
		loops[i] = openLoop{
			start:    start.Add(time.Duration(i) * interval / time.Duration(len(streams))),
			interval: interval,
			batches:  batches,
		}.withJitter(env.seed*43 + r*7 + uint64(i))
		cl := sv.client(hc, hs.id, &fl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = loops[i].run(context.Background(), func(k int) error {
				from := hs.spec.window + k*pacedBatch
				to := from + pacedBatch
				if err := cl.send(context.Background(), hs.lines, from, to); err != nil {
					run.lost = hs.lines.lines() - from
					return err
				}
				run.sent = to
				return nil
			}, &acks[i], &lates[i])
		}()
	}
	wg.Wait()
	if err := closeAndWait(srv, ids(streams), time.Minute); err != nil {
		return nil, err
	}
	stopPoll()
	sub.rt = phase.end()
	for i, err := range errs {
		var fe *errFatal
		if err != nil && !errors.As(err, &fe) {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %v\n", i, err)
		}
	}
	env.hooks.flow(&fl)

	// End to end: from the due time of the batch carrying a window's last
	// record to the sink seeing the window.
	end := start
	for i, run := range runs {
		sub.ack.xs = append(sub.ack.xs, acks[i].xs...)
		sub.late.xs = append(sub.late.xs, lates[i].xs...)
		sub.records += run.sent - streams[i].spec.window
		run.cap.mu.Lock()
		for pos, at := range run.cap.seen {
			if pos <= streams[i].spec.window {
				continue
			}
			sub.windows++
			if at.After(end) {
				end = at
			}
			k := (pos - 1 - streams[i].spec.window) / pacedBatch
			sub.e2e.add(ms(at.Sub(loops[i].due(k))))
		}
		run.cap.mu.Unlock()
	}
	sub.elapsed = end.Sub(start)
	return sub, nil
}
