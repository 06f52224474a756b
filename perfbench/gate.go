package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// hostGate keeps a run's sub-runs off spells in which the host itself is
// slow. On a shared VM the per-core speed can drop by half for minutes at
// a time (other tenants), and a sub-run measured then reports the host,
// not the program. The gate times a fixed loop on every CPU at once
// before and after every sub-run and compares the slowest CPU's time with
// the fastest such time seen in this run: before a sub-run it waits for the host to be within quietRatio of
// that; after one, a slow probe means the sub-run is measured again. The
// waiting and the repeats share one time budget, so a run that never sees
// a quiet host still ends in time, measured as it was.
type hostGate struct {
	best   float64 // fastest probe seen, ms
	budget time.Duration
	waited time.Duration
	redone int
	noisy  int // sub-runs kept although the probe after them was slow
}

const (
	// quietRatio is how much slower than the fastest probe the host may be
	// and still count as quiet: the probe's own spread on a quiet host is
	// well under it.
	quietRatio = 1.2
	// gateBudget bounds the extra time the gate may add to one run. It is
	// small because runs come in long back-to-back series: during a noisy
	// hour every run of a series may spend all of it.
	gateBudget = 10 * time.Second
	maxRedo    = 3
)

func newHostGate() *hostGate { return &hostGate{budget: gateBudget} }

// quiet probes the host and reports whether it is within quietRatio of
// the fastest probe so far.
func (g *hostGate) quiet() bool {
	p := probeCPUs()
	for i := 0; i < 2; i++ { // best of three, so one preemption is not a spell
		p = min(p, probeCPUs())
	}
	if g.best == 0 || p < g.best {
		g.best = p
	}
	return p <= quietRatio*g.best
}

// waitQuiet blocks until the host is quiet or the budget is spent.
func (g *hostGate) waitQuiet() {
	for g.waited < g.budget && !g.quiet() {
		time.Sleep(time.Second)
		g.waited += time.Second
	}
}

// measure runs one sub-run, f, on a quiet host, and again (up to maxRedo
// times, within the budget) when the host turned slow while it ran. f
// must start from scratch on every call.
func (g *hostGate) measure(f func() error) error {
	for attempt := 0; ; attempt++ {
		g.waitQuiet()
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		if g.quiet() {
			return nil
		}
		took := time.Since(start)
		if attempt == maxRedo || g.waited+took > g.budget {
			g.noisy++
			return nil
		}
		g.waited += took
		g.redone++
	}
}

var probeSink atomic.Uint64

// probeCPUs runs probeOnce on GOMAXPROCS goroutines at once and returns
// the slowest: the workloads keep every CPU busy, so one slow CPU slows
// them.
func probeCPUs() float64 {
	n := runtime.GOMAXPROCS(0)
	times := make([]float64, n)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = probeOnce()
		}(i)
	}
	wg.Wait()
	return slices.Max(times)
}

// probeOnce times a fixed integer loop (2^22 rounds of xorshift-multiply)
// on one goroutine, in milliseconds: a per-core speed figure that moves
// with the host, not with this repository's code.
func probeOnce() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9E3779B97F4A7C15
	}
	probeSink.Add(x)
	return ms(time.Since(t0))
}
