package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// corpus is one stream's generated input as text: one transaction per line
// in the format the ingest path parses. ends[i] is the byte offset just
// past line i+1, so lines [a, b) are text[lineStart(a):ends[b-1]].
type corpus struct {
	text []byte
	ends []int
}

// genCorpus renders n records of gen as whitespace-separated numeric
// tokens. The hosted stream interns the tokens into its own vocabulary, so
// the item ids the pipeline sees are assigned by first appearance.
func genCorpus(gen *data.Generator, n int) *corpus {
	c := &corpus{ends: make([]int, 0, n)}
	buf := make([]byte, 0, n*16)
	for i := 0; i < n; i++ {
		for j, it := range gen.Next().Items() {
			if j > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendUint(buf, uint64(it), 10)
		}
		buf = append(buf, '\n')
		c.ends = append(c.ends, len(buf))
	}
	c.text = buf
	return c
}

// recordsFor returns the generator of one stream's records. The profile
// — item popularity, pattern pool — comes from a fixed profile seed, and
// the workload seed picks where in that stationary stream the records
// start. So every seed gives different records with the same statistical
// shape, and a workload's cost does not swing with the pattern pool a
// seed happens to draw.
func recordsFor(profile func(uint64) *data.Generator, profileSeed, seed uint64) *data.Generator {
	g := profile(profileSeed)
	for skip := int(seed%1024) * 617; skip > 0; skip-- {
		g.Next()
	}
	return g
}

func (c *corpus) lines() int { return len(c.ends) }

func (c *corpus) lineStart(i int) int {
	if i == 0 {
		return 0
	}
	return c.ends[i-1]
}

// slice returns the text of lines [a, b).
func (c *corpus) slice(a, b int) []byte { return c.text[c.lineStart(a):c.lineStart(b)] }

// streamSpec is one stream's configuration: what a hosted stream is
// created with, and the pipeline.Config a standalone run of it uses.
type streamSpec struct {
	window, publishEvery, minSupport, vulnSupport int
	epsilon, delta, lambda                        float64
	seed                                          uint64
	queueDepth                                    int
}

// Hosted streams checkpoint after every published window; every
// checkpointFullEvery-th generation is a full snapshot, the rest are delta
// frames.
const checkpointFullEvery = 16

// pipelineConfig is the standalone pipeline.Config equivalent to the
// hosted stream: the server's isolation contract says both publish the
// same bytes. Checkpointing is left out; it never changes output.
func (s streamSpec) pipelineConfig() pipeline.Config {
	return pipeline.Config{
		WindowSize: s.window,
		Params: core.Params{
			Epsilon: s.epsilon, Delta: s.delta,
			MinSupport: s.minSupport, VulnSupport: s.vulnSupport,
		},
		Scheme:       core.Hybrid{Lambda: s.lambda, Order: core.OrderPreserving{}},
		Seed:         s.seed,
		PublishEvery: s.publishEvery,
		Workers:      1,
	}
}

// publishPositions returns the positions a run over n records publishes
// at: the window's first fill, every publishEvery records after it, and
// the end of the stream.
func publishPositions(window, publishEvery, n int) []int {
	var out []int
	for p := window; p <= n; p += publishEvery {
		out = append(out, p)
	}
	if len(out) > 0 && out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// windowHash fingerprints one published window: its position and every
// (itemset, support) pair in publication order.
func windowHash(pos int, out *core.Output) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(pos))
	for _, it := range out.Items {
		mix(uint64(it.Set.Len()))
		for _, x := range it.Set.Items() {
			mix(uint64(x))
		}
		mix(uint64(int64(it.Support)))
	}
	return h
}

// digest folds per-window hashes, in position order, into one value.
func digest(positions []int, hashes map[int]uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range positions {
		h ^= hashes[p]
		h *= 1099511628211
	}
	return h
}

// capture records, per position, the hash of every window a sink saw and
// when it first saw it. It is safe for concurrent use.
type capture struct {
	mu     sync.Mutex
	hashes map[int]uint64
	seen   map[int]time.Time
	// mismatch counts positions seen twice with different bytes (a
	// recovered stream re-publishing a window differently).
	mismatch int
}

func newCapture() *capture {
	return &capture{hashes: map[int]uint64{}, seen: map[int]time.Time{}}
}

func (c *capture) observe(at time.Time, w pipeline.Window) {
	h := windowHash(w.Position, w.Output)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.hashes[w.Position]; ok {
		if old != h {
			// A recovered stream re-published the window with other
			// bytes: poison the position so the check fails it.
			c.mismatch++
			c.hashes[w.Position] = 0
		}
	} else {
		c.hashes[w.Position] = h
		c.seen[w.Position] = at
	}
}

// seedFrom copies the windows another capture saw (a crash image's
// incarnation) into c.
func (c *capture) seedFrom(o *capture) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for p, h := range o.hashes {
		c.hashes[p] = h
		c.seen[p] = o.seen[p]
	}
	c.mismatch += o.mismatch
}

// check is one stream's reference: the windows a standalone run publishes
// and the verdict of the ε-ceiling check on each.
type check struct {
	positions []int          // expected publication positions
	ref       map[int]uint64 // reference hash per position
	badWin    map[int]bool   // positions whose sanitized values break the ε ceiling
	avgPred   sample         // per-window average precision degradation
	ropp      sample         // per-window rate of order-preserved pairs
	err       error
}

// reference runs the standalone sanitized pipeline over newSrc and, in
// lockstep, its Raw twin over a second copy of the same records: the
// sanitized hashes are the reference bytes, and the Raw supports are the
// truth each published value is checked against (ε ceiling, avg_pred,
// ropp, paper §V-C / §VII-B).
func reference(cfg pipeline.Config, n int, newSrc func() pipeline.RecordSource) *check {
	ck := &check{
		positions: publishPositions(cfg.WindowSize, cfg.PublishEvery, n),
		ref:       map[int]uint64{},
		badWin:    map[int]bool{},
	}
	type rawWin struct {
		pos int
		out *core.Output
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	raws := make(chan rawWin, 8) // a few windows of slack between the twins
	rawCfg := cfg
	rawCfg.Raw = true
	rawP, err := pipeline.New(rawCfg)
	if err != nil {
		ck.err = err
		return ck
	}
	var rawErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(raws)
		_, rawErr = rawP.RunContext(ctx, newSrc(), func(w pipeline.Window) error {
			select {
			case raws <- rawWin{w.Position, w.Output}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	p, err := pipeline.New(cfg)
	if err != nil {
		ck.err = err
		cancel()
		wg.Wait()
		return ck
	}
	params := cfg.Params
	half := params.Alpha() / 2
	_, err = p.RunContext(ctx, newSrc(), func(w pipeline.Window) error {
		ck.ref[w.Position] = windowHash(w.Position, w.Output)
		rw, ok := <-raws
		if !ok || rw.pos != w.Position {
			return fmt.Errorf("raw reference out of step at position %d", w.Position)
		}
		truth := make(map[string]int, len(rw.out.Items))
		for _, it := range rw.out.Items {
			truth[it.Set.Key()] = it.Support
		}
		pairs := make([]metrics.Pair, 0, len(w.Output.Items))
		for _, it := range w.Output.Items {
			t, ok := truth[it.Set.Key()]
			if !ok || math.Abs(float64(it.Support-t)) > float64(params.MaxBias(t)+half) {
				ck.badWin[w.Position] = true
			}
			pairs = append(pairs, metrics.Pair{True: t, Sanitized: it.Support})
		}
		if len(pairs) != len(truth) {
			ck.badWin[w.Position] = true
		}
		if len(pairs) > 0 && !ck.badWin[w.Position] {
			ck.avgPred.add(metrics.AvgPred(pairs))
			ck.ropp.add(metrics.ROPP(pairs))
		}
		return nil
	})
	if err != nil {
		cancel()
	}
	for range raws {
	}
	wg.Wait()
	switch {
	case err != nil:
		ck.err = fmt.Errorf("reference run: %w", err)
	case rawErr != nil:
		ck.err = fmt.Errorf("raw reference run: %w", rawErr)
	}
	return ck
}

// failedRecords counts the records of an n-record stream whose window was
// not published as the reference published it. A record belongs to the
// first window at or after its position; a position the measured run
// never published, published with other bytes, or that fails the ε
// ceiling fails every record it covers. Records past the last reference
// position at or below n (a stream that ended off the publication grid)
// fail too: their window has no reference.
func (ck *check) failedRecords(got *capture, n int) (failed int, windowsOK int) {
	got.mu.Lock()
	defer got.mu.Unlock()
	prev := 0
	for _, p := range ck.positions {
		if p > n {
			break
		}
		h, ok := got.hashes[p]
		if !ok || h != ck.ref[p] || ck.badWin[p] {
			failed += p - prev
		} else {
			windowsOK++
		}
		prev = p
	}
	return failed + n - prev, windowsOK
}

// phaseMeter measures the process over a run's measured phase: the
// maximum heap in use above the baseline taken at start, CPU time, and the
// Go runtime's allocation and GC counters.
//
// The heap is sampled through runtime/metrics, which does not stop the
// world (runtime.ReadMemStats does), every 13ms — a period no workload's
// schedule is a multiple of, so sampling never phase-locks with requests.
type phaseMeter struct {
	base uint64
	m0   runtime.MemStats
	cpu0 time.Duration
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

// heapInUse is HeapInuse as runtime/metrics reports it: bytes in spans
// holding objects, live or not yet swept.
func heapInUse(s []rtmetrics.Sample) uint64 {
	rtmetrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func heapSamples() []rtmetrics.Sample {
	return []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

func startPhase() *phaseMeter {
	runtime.GC()
	h := &phaseMeter{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&h.m0)
	hs := heapSamples()
	h.base = heapInUse(hs)
	h.cpu0 = cpuTime()
	go func() {
		defer close(h.done)
		t := time.NewTicker(13 * time.Millisecond)
		defer t.Stop()
		for {
			if v := heapInUse(hs); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// runStats is the process-wide cost of a measured phase.
type runStats struct {
	heapMB     float64 // peak HeapInuse above the baseline, MiB
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// end stops sampling and returns the phase's costs.
func (h *phaseMeter) end() runStats {
	close(h.stop)
	<-h.done
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	st := runStats{
		cpu:        cpuTime() - h.cpu0,
		allocBytes: m1.TotalAlloc - h.m0.TotalAlloc,
		gcCycles:   m1.NumGC - h.m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - h.m0.PauseTotalNs),
	}
	if p := h.peak.Load(); p > h.base {
		st.heapMB = float64(p-h.base) / (1 << 20)
	}
	return st
}

// copyTree copies a directory of regular files recursively.
func copyTree(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// readerSource is a standalone source over a corpus prefix, as the
// reference runs use it.
func readerSource(c *corpus, n int) func() pipeline.RecordSource {
	return func() pipeline.RecordSource {
		return pipeline.ReaderSource(bytes.NewReader(c.slice(0, n)), nil)
	}
}

// generatorSource replays a generator prefix for reference runs of the
// library workload.
func generatorSource(newGen func() *data.Generator, n int) func() pipeline.RecordSource {
	return func() pipeline.RecordSource { return pipeline.GeneratorSource(newGen(), n) }
}
