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

// ingest-durable: a closed loop of two clients, each feeding its own
// WebView-like stream in ?offset batches, against a durable server that
// booted by recovering a crash image. Short records make the per-record
// cost of parse, server, WAL append/fsync and queue dominate; publication
// is sparse (once per window), so the Alg. 1 DP does little.
var ingestSpec = streamSpec{
	window: 400, publishEvery: 400, minSupport: 10, vulnSupport: 5,
	epsilon: 0.1, delta: 0.4, lambda: 0.4,
	queueDepth: 4096,
}

const (
	ingestStreams = 2
	ingestBatch   = 300 // lines per POST
	// ingestPrefix is what the crash image holds per stream: twenty full
	// windows (a full anchor plus a delta chain) and half a window of WAL
	// tail past the newest checkpoint.
	ingestPrefix = 20*400 + 200
	// ingestLinesPerSec bounds how much input is generated per stream per
	// measured second; a closed loop that outran it would stop early.
	ingestLinesPerSec = 200_000
	// setupTrials is how many times each sub-run sets up a server.
	setupTrials = 3
)

func ingestStreamsFor(seed uint64, sub time.Duration) []*hostedStream {
	out := make([]*hostedStream, ingestStreams)
	for i := range out {
		spec := ingestSpec
		spec.seed = seed*31 + uint64(i)
		n := ingestPrefix + int(sub.Seconds()*ingestLinesPerSec)
		// End on a batch boundary that is also a publication position.
		for (n-ingestPrefix)%ingestBatch != 0 || n%spec.publishEvery != 0 {
			n--
		}
		out[i] = &hostedStream{
			id:    fmt.Sprintf("webview-%d", i),
			spec:  spec,
			lines: genCorpus(recordsFor(data.WebViewLike, 1009+uint64(i), seed), n),
		}
	}
	return out
}

// writeCrashImage boots a durable server in dir, feeds every stream its
// prefix, waits until the pipelines consumed it, and aborts the server —
// the simulated kill -9 the measured boot recovers from. runs receive the
// windows published before the crash.
func writeCrashImage(dir string, streams []*hostedStream, runs []*streamRun) error {
	srv := server.New(serverOptions(dir, captures(streams, runs), nil))
	sv, err := listen(srv)
	if err != nil {
		return err
	}
	defer sv.hs.Close()
	hc := httpClient(ingestStreams)
	defer hc.CloseIdleConnections()
	var fl flow
	for _, hs := range streams {
		if _, err := srv.Create(hs.spec.streamConfig(hs.id)); err != nil {
			return err
		}
		cl := sv.client(hc, hs.id, &fl)
		for off := 0; off < ingestPrefix; off += 500 {
			if err := cl.send(context.Background(), hs.lines, off, min(off+500, ingestPrefix)); err != nil {
				return err
			}
		}
	}
	deadline := time.Now().Add(time.Minute)
	for _, hs := range streams {
		for {
			st, err := srv.Status(hs.id)
			if err != nil {
				return err
			}
			if st.RecordsConsumed >= ingestPrefix {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("crash image: stream %s consumed %d of %d records", hs.id, st.RecordsConsumed, ingestPrefix)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	srv.Abort()
	return nil
}

func runIngestDurable(env *env) (*result, error) {
	streams := ingestStreamsFor(env.seed, env.subSeconds())
	image, err := freshDir(env.work, "image")
	if err != nil {
		return nil, err
	}
	pre := newStreamRuns(len(streams))
	if err := writeCrashImage(image, streams, pre); err != nil {
		return nil, fmt.Errorf("writing crash image: %w", err)
	}
	res := &result{}
	var runs [][]*streamRun
	for r := -1; r < subRuns; r++ {
		dur := env.subSeconds()
		if r < 0 {
			dur /= 2 // warm-up, discarded
		}
		var sub *subRun
		var sr []*streamRun
		err := env.gate.measure(func() error {
			sr = newStreamRuns(len(streams))
			for i := range sr {
				sr[i].cap.seedFrom(pre[i].cap)
			}
			var err error
			sub, err = ingestSubRun(env, streams, sr, image, dur)
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
	for r, sr := range runs {
		for i, run := range sr {
			if run.sent == streams[i].lines.lines() {
				res.notes = append(res.notes, fmt.Sprintf("sub-run %d: stream %s used all %d generated lines before the deadline", r, streams[i].id, run.sent))
			}
		}
	}
	res.verdict = checkStreams(streams, runs)
	res.inputs = replayInputs(streams, runs, ingestBatch)
	if err := os.RemoveAll(image); err != nil {
		return nil, err
	}
	return res, nil
}

// ingestSubRun boots a server by recovering a fresh copy of the crash
// image (setupTrials times; every boot but the last is aborted again) and
// runs the closed loop against it for one sub-run.
func ingestSubRun(env *env, streams []*hostedStream, runs []*streamRun, image string, dur time.Duration) (*subRun, error) {
	sub := &subRun{}
	phase := startPhase()
	var srv *server.Server
	for trial := 0; trial < setupTrials; trial++ {
		dir, err := freshDir(env.work, "boot")
		if err != nil {
			return nil, err
		}
		if err := copyTree(dir, image); err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv = server.New(serverOptions(dir, captures(streams, runs), env.hooks))
		srv.BeginBoot()
		rep, err := srv.Recover()
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		if !srv.Ready() || rep.Adopted != ingestStreams {
			return nil, fmt.Errorf("recover: ready=%v adopted=%d parked=%d", srv.Ready(), rep.Adopted, rep.Parked)
		}
		sub.setup.add(time.Since(t0).Seconds())
		env.hooks.recovered(rep)
		if trial < setupTrials-1 {
			srv.Abort()
		}
	}
	sv, err := listen(srv)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	hc := httpClient(ingestStreams)
	defer hc.CloseIdleConnections()
	var fl flow
	stopPoll := env.hooks.pollStatus(srv, ids(streams))

	// Closed loop: each client sends its next batch when the previous one
	// is acknowledged, until the measured time is up and its stream sits on
	// a publication position (so the final window is one the reference
	// publishes too).
	start := time.Now()
	stopAt := start.Add(dur)
	sentAt := make([][]time.Time, len(streams))
	acks := make([]sample, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, hs := range streams {
		i, hs, run := i, hs, runs[i]
		st, err := srv.Status(hs.id)
		if err != nil {
			return nil, err
		}
		if st.AcceptedLines != ingestPrefix {
			return nil, fmt.Errorf("stream %s recovered %d accepted lines, want %d", hs.id, st.AcceptedLines, ingestPrefix)
		}
		run.sent = ingestPrefix
		cl := sv.client(hc, hs.id, &fl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := hs.lines.lines()
			for off := ingestPrefix; off < n && (time.Now().Before(stopAt) || off%hs.spec.publishEvery != 0); off += ingestBatch {
				to := off + ingestBatch
				t0 := time.Now()
				sentAt[i] = append(sentAt[i], t0)
				if err := cl.send(context.Background(), hs.lines, off, to); err != nil {
					errs[i] = err
					run.lost = to - off
					return
				}
				acks[i].add(ms(time.Since(t0)))
				run.sent = to
			}
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

	// End to end: each window published after the boot, timed from the
	// first send of the batch that carried its last record.
	end := start
	for i, run := range runs {
		sub.ack.xs = append(sub.ack.xs, acks[i].xs...)
		sub.records += run.sent - ingestPrefix
		run.cap.mu.Lock()
		for pos, at := range run.cap.seen {
			if pos <= ingestPrefix {
				continue
			}
			sub.windows++
			if at.After(end) {
				end = at
			}
			if k := (pos - 1 - ingestPrefix) / ingestBatch; k < len(sentAt[i]) {
				sub.e2e.add(ms(at.Sub(sentAt[i][k])))
			}
		}
		run.cap.mu.Unlock()
	}
	sub.elapsed = end.Sub(start)
	return sub, nil
}
