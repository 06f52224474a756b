package main

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/pipeline"
)

// publish-dense: the pipeline library alone, single-threaded publication
// (workers 1) of a WebView-like stream every 50 records over a 4,000-record
// window at C=20. The perturb stage — FEC partition, the hybrid scheme's
// Alg. 1 DP, the draws — is the bottleneck; server, WAL and checkpoint are
// bypassed, so a change to those must not move this workload.
var denseSpec = streamSpec{
	window: 4000, publishEvery: 50, minSupport: 20, vulnSupport: 5,
	epsilon: 0.1, delta: 0.4, lambda: 0.4,
}

const (
	denseBatch = 100 // records per intake batch (the ack unit)
	// setupTrialsDense repeats pipeline set-up, which takes microseconds,
	// often enough per sub-run for a steady median.
	setupTrialsDense = 67
	stampRing        = 1 << 16
)

// timedSource feeds generator records to the pipeline. After the deadline
// it ends the stream at the next publication position, so the final
// window is one a longer run publishes too. It stamps when each record was
// handed over (for e2e) and when each denseBatch-th record was (for batch
// intake latency).
type timedSource struct {
	gen                  *data.Generator
	deadline             time.Time
	window, publishEvery int
	n                    int
	pulled               [stampRing]atomic.Int64 // unix nanos, by position mod stampRing
	firstAt, lastAck     time.Time
	ack                  *sample
}

func (s *timedSource) Next() (itemset.Itemset, error) {
	now := time.Now()
	if s.n == 0 {
		s.firstAt, s.lastAck = now, now
	}
	if now.After(s.deadline) && s.n >= s.window && (s.n-s.window)%s.publishEvery == 0 {
		return itemset.Itemset{}, io.EOF
	}
	rec := s.gen.Next()
	s.n++
	s.pulled[s.n%stampRing].Store(now.UnixNano())
	if s.n%denseBatch == 0 {
		// Closed-loop intake: batch k is "sent" when batch k-1's last
		// record was taken, and acknowledged when its own last record is.
		s.ack.add(ms(now.Sub(s.lastAck)))
		s.lastAck = now
	}
	return rec, nil
}

func runPublishDense(env *env) (*result, error) {
	cfg := denseSpec.pipelineConfig()
	cfg.Seed = env.seed*41 + 1
	newGen := func() *data.Generator { return recordsFor(data.WebViewLike, 1019, env.seed) }
	res := &result{}
	var hashes []map[int]uint64
	var ns []int
	for r := -1; r < subRuns; r++ {
		dur := env.subSeconds()
		if r < 0 {
			dur /= 2 // warm-up, discarded
		}
		var sub *subRun
		var h map[int]uint64
		var n int
		err := env.gate.measure(func() error {
			var err error
			sub, h, n, err = denseSubRun(env, cfg, newGen, dur)
			return err
		})
		if err != nil {
			return nil, err
		}
		if r < 0 {
			continue
		}
		res.subs = append(res.subs, sub)
		hashes = append(hashes, h)
		ns = append(ns, n)
	}

	// The check re-runs the longest sub-run's records standalone (sanitized
	// and Raw in lockstep): every sub-run's bytes must repeat exactly and
	// every value must respect the ε ceiling.
	n := 0
	for _, x := range ns {
		n = max(n, x)
	}
	ck := reference(cfg, n, generatorSource(newGen, n))
	res.verdict.judge(ck)
	for r := range hashes {
		got := newCapture()
		got.hashes = hashes[r]
		res.verdict.count(ck, got, ns[r])
	}
	res.inputs = []replayInput{{cfg: cfg, n: n, batch: denseBatch, newGen: newGen}}
	return res, nil
}

// denseSubRun measures pipeline set-up (pipeline.New until the run asks for
// its first record, setupTrialsDense times), then one timed run.
func denseSubRun(env *env, cfg pipeline.Config, newGen func() *data.Generator, dur time.Duration) (*subRun, map[int]uint64, int, error) {
	sub := &subRun{}
	phase := startPhase()
	for trial := 0; trial < setupTrialsDense; trial++ {
		src := &timedSource{publishEvery: 1, ack: &sample{}} // ends before its first record
		t0 := time.Now()
		p, err := pipeline.New(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		p.RunContext(context.Background(), src, func(pipeline.Window) error { return nil })
		p.Wait()
		sub.setup.add(src.firstAt.Sub(t0).Seconds())
	}

	p, err := pipeline.New(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	src := &timedSource{
		gen:      newGen(),
		deadline: time.Now().Add(dur),
		window:   cfg.WindowSize, publishEvery: cfg.PublishEvery,
		ack: &sub.ack,
	}
	hashes := map[int]uint64{}
	var end time.Time
	start := time.Now()
	_, err = p.RunContext(context.Background(), env.hooks.wrapDenseSource(src), env.hooks.wrapEmit(func(w pipeline.Window) error {
		now := time.Now()
		sub.e2e.add(ms(now.Sub(time.Unix(0, src.pulled[w.Position%stampRing].Load()))))
		hashes[w.Position] = windowHash(w.Position, w.Output)
		sub.windows++
		end = now
		return nil
	}))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("publish-dense run: %w", err)
	}
	p.Wait()
	sub.rt = phase.end()
	sub.elapsed = end.Sub(start)
	sub.records = src.n
	return sub, hashes, src.n, nil
}
