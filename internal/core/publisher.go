package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/rng"
	"repro/internal/trace"
)

// PublishedItemset is one sanitized entry of the released mining output.
type PublishedItemset struct {
	Set itemset.Itemset
	// Support is the sanitized support T̃(X) = T(X) + β + r.
	Support int
}

// Output is the sanitized mining output of one window — what leaves the
// system. It deliberately carries no true supports.
//
// The lookup index behind Support is built lazily on first use: the publish
// hot path only appends and sorts Items, and most outputs are written out or
// diffed positionally without a single lookup, so interning a key string per
// itemset per window was pure garbage. An Output is safe for concurrent
// reads only once the index exists (call Support once before sharing);
// windows inside the pipeline are owned by one stage at a time.
type Output struct {
	// WindowSize is H; the sliding-window protocol makes it public.
	WindowSize int
	// Items are the published itemsets, sorted by descending sanitized
	// support (ties by size then key), the order a mining frontend displays.
	Items []PublishedItemset

	byKey map[string]int // Key() -> Support, built on first use
}

// index returns the Key() -> Support map, building it on first use.
func (o *Output) index() map[string]int {
	if o.byKey == nil {
		o.byKey = make(map[string]int, len(o.Items))
		for _, it := range o.Items {
			o.byKey[it.Set.Key()] = it.Support
		}
	}
	return o.byKey
}

// Support returns the published support of s.
func (o *Output) Support(s itemset.Itemset) (int, bool) {
	v, ok := o.index()[s.Key()]
	return v, ok
}

// Len returns the number of published itemsets.
func (o *Output) Len() int { return len(o.Items) }

// NewRawOutput packages an unsanitized mining result in the Output format —
// what a system WITHOUT output-privacy protection releases. It exists for
// audits and side-by-side comparisons; production publication goes through
// Publisher.Publish.
func NewRawOutput(res *mining.Result, windowSize int) *Output {
	out := &Output{
		WindowSize: windowSize,
		Items:      make([]PublishedItemset, 0, res.Len()),
	}
	for _, fi := range res.Itemsets {
		out.Items = append(out.Items, PublishedItemset{Set: fi.Set, Support: fi.Support})
	}
	return out
}

// Publisher perturbs mining results window after window. It owns the
// consistent-republication cache that blocks the averaging attack of Prior
// Knowledge 2 (§V-C): as long as an itemset's true support is unchanged
// between consecutive windows, the previously published sanitized value is
// republished verbatim instead of being redrawn.
//
// Publisher is not safe for concurrent use.
type Publisher struct {
	params Params
	scheme Scheme
	src    *rng.Source

	// cache maps itemset.Itemset.Key() strings to republication entries.
	// Entries are pointers so the steady-state hit path can look up with
	// `cache[string(keyBuf)]` (a conversion the compiler elides — zero
	// allocations) and refresh the entry through the pointer; a key string is
	// materialized only when a genuinely new itemset is inserted.
	cache         map[string]*cacheEntry
	cacheDisabled bool
	maxCacheAge   int
	window        int

	// Per-window scratch, reused across Publish calls so a steady-state
	// window allocates almost nothing (see DESIGN.md §2.12 for the ownership
	// rules). All of it holds values only BETWEEN phases of one Publish call;
	// nothing published aliases it.
	classScratch  []fec.Class       // FEC partition of the current window
	memberScratch []itemset.Itemset // flat backing array for classScratch members
	ladderScratch []ladderRung      // current window's ladder, compared to lastLadder
	keyBuf        []byte            // AppendKey scratch for cache lookups
	job           perturbJob        // the current window's perturbation chunks

	// Incremental bias reuse (the paper's §VII "incremental version"
	// future work): when consecutive windows produce the same FEC ladder —
	// the same (support, class-size) sequence — the bias optimization would
	// recompute the identical answer, so the previous biases are reused.
	lastLadder []ladderRung
	lastBiases []int
	biasReuses int

	// Delta-snapshot tracking (SetDeltaTracking): when deltaTrack is on,
	// every cache mutation appends the entry to dirtyCache exactly once per
	// baseline interval, and the age sweep records removed keys in
	// evictedKeys, so SnapshotDelta can serialize only what changed —
	// O(changed), not O(cache). Off by default; the only cost when off is one
	// predictable branch per cache write.
	deltaTrack  bool
	dirtyCache  []*cacheEntry
	evictedKeys []string

	// workers is how many goroutines draw perturbation chunks (SetWorkers).
	workers int

	// chunkHook, when non-nil, runs at the start of every perturbation
	// chunk. Test-only: fault-injection tests use it to drive the
	// panic-recovery path.
	chunkHook func(chunk int)

	optDur     time.Duration
	perturbDur time.Duration

	// Observability (see telemetry.go): the registered instrument set and
	// the rolling ring behind the §V-C posture gauges. nil metrics disables
	// recording; none of it influences published values. tr is the current
	// window's flight-recorder trace (SetTrace), receiving the
	// bias-optimization and republication-cache child spans.
	metrics  *pubMetrics
	tr       *trace.Window
	roll     [privacyRollWindows]windowPosture
	rollNext int
}

// publishChunkClasses is the number of FECs per perturbation chunk. It is a
// fixed constant — NOT derived from the worker count — so that chunk
// boundaries, and therefore every chunk's RNG stream, are identical no
// matter how many workers execute them.
const publishChunkClasses = 4

type ladderRung struct {
	support int
	size    int
}

type cacheEntry struct {
	// key is the entry's own cache key (itemset.Itemset.Key()). It is stored
	// on the entry so delta tracking can emit upserts straight from the dirty
	// list without re-deriving keys from the map.
	key         string
	trueSupport int
	sanitized   int
	lastSeen    int
	// dirty marks the entry as touched since the last snapshot baseline; it
	// is meaningful only while delta tracking is on (SetDeltaTracking).
	dirty bool
}

// NewPublisher validates the parameters and returns a Publisher using the
// given scheme and random source. A nil scheme defaults to Basic; a nil
// source panics (reproducibility is a requirement, not an option).
func NewPublisher(p Params, scheme Scheme, src *rng.Source) (*Publisher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scheme == nil {
		scheme = Basic{}
	}
	if src == nil {
		panic("core: NewPublisher requires a random source")
	}
	return &Publisher{
		params:      p,
		scheme:      scheme,
		src:         src,
		cache:       map[string]*cacheEntry{},
		maxCacheAge: 64,
	}, nil
}

// Params returns the calibration the publisher was built with.
func (pub *Publisher) Params() Params { return pub.params }

// Scheme returns the active bias-setting scheme.
func (pub *Publisher) Scheme() Scheme { return pub.scheme }

// Publish sanitizes one window's mining result. windowSize is H (used for
// the public output header; it may exceed res's record count during stream
// warm-up).
//
// Publish is retry-safe: every error return leaves the publisher exactly as
// it was before the call — window counter, RNG stream, republication cache
// and bias memo untouched — so a supervised pipeline may retry the same
// window and obtain the output a fault-free run would have published.
func (pub *Publisher) Publish(res *mining.Result, windowSize int) (*Output, error) {
	if res == nil {
		return nil, fmt.Errorf("core: nil mining result")
	}
	pub.classScratch, pub.memberScratch = fec.PartitionInto(res, pub.classScratch, pub.memberScratch)
	classes := pub.classScratch
	reusesBefore := pub.biasReuses
	t0 := time.Now()
	biases, err := pub.biasesFor(classes)
	optTook := time.Since(t0)
	pub.optDur += optTook
	pub.recordBiasOpt(optTook)
	pub.tr.Add(trace.KindBiasOpt, t0, optTook).
		Attr(trace.AttrBiasReused, int64(pub.biasReuses-reusesBefore))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	alpha := pub.params.Alpha()
	half := alpha / 2

	pub.window++
	out := &Output{
		WindowSize: windowSize,
		Items:      make([]PublishedItemset, fec.TotalMembers(classes)),
	}
	savedSrc := *pub.src
	hits, misses, err := pub.perturb(out.Items, classes, biases, half)
	if err != nil {
		// Roll back so a retry redraws the identical perturbation.
		*pub.src = savedSrc
		pub.window--
		pub.perturbDur += time.Since(t0)
		return nil, err
	}
	slices.SortFunc(out.Items, func(a, b PublishedItemset) int {
		if a.Support != b.Support {
			return b.Support - a.Support
		}
		if a.Set.Len() != b.Set.Len() {
			return a.Set.Len() - b.Set.Len()
		}
		return itemset.Compare(a.Set, b.Set)
	})
	pub.sweepCache()
	// Observability, strictly after the output is final: cache traffic and
	// the window's §V-C posture (telemetry.go), plus the cache child span —
	// it covers the perturbation interval the cache served, carrying the
	// hit/miss tally. No-ops without a registry / trace window.
	pub.recordCache(hits, misses)
	pub.recordPosture(classes, out)
	perturbTook := time.Since(t0)
	pub.perturbDur += perturbTook
	cs := pub.tr.Add(trace.KindCache, t0, perturbTook)
	cs.Attr(trace.AttrCacheHits, int64(hits))
	cs.Attr(trace.AttrCacheMisses, int64(misses))
	return out, nil
}

// perturb draws the window's sanitized supports into items, which holds one
// slot per FEC member laid out class by class in ladder order. The ladder is
// cut into fixed chunks of publishChunkClasses classes; chunk c draws from
// its own rng.Source seeded with Mix(windowSeed, c), where windowSeed is one
// draw from the publisher's stream. Chunk boundaries and seeds depend only on
// the data and the seed, so the output is the same at every worker count:
// with one worker the chunks run inline on the calling goroutine, with more
// they fan out.
//
// Chunks only read the republication cache; it is written afterwards, in one
// pass on the calling goroutine, through the entries the chunks found. So a
// panicking chunk leaves the cache untouched, and Publish can roll back and
// stay retry-safe. The hit/miss tally feeds the cache-traffic telemetry.
func (pub *Publisher) perturb(items []PublishedItemset, classes []fec.Class, biases []int, half int) (hits, misses int, err error) {
	job := &pub.job
	job.seed = pub.src.Uint64()
	nChunks := (len(classes) + publishChunkClasses - 1) / publishChunkClasses
	if nChunks == 0 {
		return 0, 0, nil
	}
	job.classes, job.biases, job.half, job.items = classes, biases, half, items
	job.sharedDraws = pub.scheme.SharedDraws()
	job.starts = job.starts[:0]
	start := 0
	for ci, class := range classes {
		if ci%publishChunkClasses == 0 {
			job.starts = append(job.starts, start)
		}
		start += len(class.Members)
	}
	if cap(job.entries) < len(items) {
		job.entries = make([]*cacheEntry, len(items))
	}
	job.entries = job.entries[:len(items)]
	job.next.Store(0)
	defer func() { job.classes, job.biases, job.items = nil, nil, nil }()

	if workers := min(pub.workers, nChunks); workers <= 1 {
		pub.keyBuf, err = pub.drawChunks(pub.keyBuf)
	} else {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, werr := pub.drawChunks(nil); werr != nil {
					mu.Lock()
					if err == nil {
						err = werr
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	if err != nil {
		clear(job.entries)
		return 0, 0, err
	}

	keyBuf := pub.keyBuf
	i := 0
	for _, class := range classes {
		for range class.Members {
			e, it := job.entries[i], &items[i]
			job.entries[i] = nil
			i++
			if pub.republishes(e, class.Support) {
				hits++
			} else {
				misses++
			}
			if e == nil {
				keyBuf = it.Set.AppendKey(keyBuf[:0])
				e = &cacheEntry{key: string(keyBuf)}
				pub.cache[e.key] = e
			}
			e.trueSupport = class.Support
			e.sanitized = it.Support
			e.lastSeen = pub.window
			pub.markDirty(e)
		}
	}
	pub.keyBuf = keyBuf
	return hits, misses, nil
}

// perturbJob is one window's perturbation work, shared by every goroutine
// that draws its chunks. It lives in the publisher so its buffers are reused
// window after window.
type perturbJob struct {
	classes     []fec.Class
	biases      []int
	half        int
	sharedDraws bool
	seed        uint64             // windowSeed, one draw from the publisher's stream
	starts      []int              // starts[c]: index in items of chunk c's first member
	items       []PublishedItemset // the window's output, class by class
	// entries[i] is the cache entry items[i] found before this window, or
	// nil. Each chunk writes only its own slots.
	entries []*cacheEntry
	next    atomic.Int64 // next unclaimed chunk
}

// drawChunks claims chunks off the shared counter and draws them until none
// are left, so if one goroutine dies to a panic the others drain the rest.
// The panic comes back as an error. keyBuf is the caller's key scratch; the
// grown buffer is returned for reuse.
func (pub *Publisher) drawChunks(keyBuf []byte) (_ []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("core: perturbation worker panicked: %v", v)
		}
	}()
	job := &pub.job
	for {
		c := int(job.next.Add(1)) - 1
		if c >= len(job.starts) {
			return keyBuf, nil
		}
		keyBuf = pub.drawChunk(c, keyBuf)
	}
}

// drawChunk draws chunk c. Shared-draw schemes take one draw per class from
// the chunk's source, batched through FillIntRange; the basic scheme takes a
// per-class draw (unused, but part of the draw order) and then one draw per
// itemset that misses the cache.
func (pub *Publisher) drawChunk(c int, keyBuf []byte) []byte {
	if pub.chunkHook != nil {
		pub.chunkHook(c)
	}
	job := &pub.job
	var src rng.Source
	src.SetState(rng.Mix(job.seed, uint64(c)))
	start := c * publishChunkClasses
	end := min(start+publishChunkClasses, len(job.classes))
	var draws [publishChunkClasses]int
	if job.sharedDraws {
		src.FillIntRange(-job.half, job.half, draws[:end-start])
	}
	i := job.starts[c]
	for ci := start; ci < end; ci++ {
		class := job.classes[ci]
		bias := job.biases[ci]
		if !job.sharedDraws {
			src.IntRange(-job.half, job.half)
		}
		for _, member := range class.Members {
			keyBuf = member.AppendKey(keyBuf[:0])
			e := pub.cache[string(keyBuf)] // read-only, alloc-free lookup
			sanitized := class.Support + bias
			switch {
			case pub.republishes(e, class.Support):
				sanitized = e.sanitized
			case job.sharedDraws:
				sanitized += draws[ci-start]
			default:
				sanitized += src.IntRange(-job.half, job.half)
			}
			job.items[i] = PublishedItemset{Set: member, Support: sanitized}
			job.entries[i] = e
			i++
		}
	}
	return keyBuf
}

// republishes reports whether cache entry e re-serves its sanitized value
// for an itemset whose true support is now trueSupport (§V-C, Prior
// Knowledge 2).
func (pub *Publisher) republishes(e *cacheEntry, trueSupport int) bool {
	return e != nil && !pub.cacheDisabled && e.trueSupport == trueSupport
}

// SetWorkers sets how many goroutines draw a window's perturbation chunks
// (<= 1, the default: inline on the calling goroutine). Published output
// does not depend on it: chunk boundaries and per-chunk seeds are functions
// of the data and the seed alone.
func (pub *Publisher) SetWorkers(workers int) { pub.workers = workers }

// SetTrace directs the next Publish call's bias-optimization and
// republication-cache child spans into w, the current window of the
// in-process flight recorder (nil detaches). Tracing is observation-only —
// it never influences published values. The pipeline's perturb stage calls
// this once per window, before Publish, so the spans nest under the right
// window track.
func (pub *Publisher) SetTrace(w *trace.Window) { pub.tr = w }

// biasesFor computes (or reuses) the per-class biases. The bias of a class
// depends only on its support and size plus its neighbours' (all schemes are
// functions of the FEC ladder), so when the ladder repeats between windows —
// the common case under a slide of one record — the previous result is
// returned without re-running the optimization.
// A scheme returning the wrong number of biases is rejected BEFORE the memo
// is written, so a misbehaving call can never poison later windows.
func (pub *Publisher) biasesFor(classes []fec.Class) ([]int, error) {
	ladder := pub.ladderScratch[:0]
	for _, c := range classes {
		ladder = append(ladder, ladderRung{support: c.Support, size: c.Size()})
	}
	pub.ladderScratch = ladder
	if pub.lastBiases != nil && sameLadder(ladder, pub.lastLadder) {
		pub.biasReuses++
		pub.recordBiasReuse()
		return pub.lastBiases, nil
	}
	biases := pub.scheme.Biases(classes, pub.params)
	if len(biases) != len(classes) {
		return nil, fmt.Errorf("core: scheme %s returned %d biases for %d classes",
			pub.scheme.Name(), len(biases), len(classes))
	}
	// The memo must survive the scratch's next reuse: copy, reusing the
	// memo's own capacity.
	pub.lastLadder = append(pub.lastLadder[:0], ladder...)
	pub.lastBiases = biases
	return biases, nil
}

func sameLadder(a, b []ladderRung) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BiasReuses reports how many Publish calls reused the previous window's
// bias optimization (diagnostics for the incremental path).
func (pub *Publisher) BiasReuses() int { return pub.biasReuses }

// sweepCache evicts entries for itemsets that have not been published
// recently, bounding memory on long streams without re-randomizing values
// that reappear quickly with unchanged support.
func (pub *Publisher) sweepCache() {
	if pub.window%16 != 0 {
		return
	}
	for k, e := range pub.cache {
		if pub.window-e.lastSeen > pub.maxCacheAge {
			delete(pub.cache, k)
			if pub.deltaTrack {
				pub.evictedKeys = append(pub.evictedKeys, k)
			}
		}
	}
}

// markDirty records e in the dirty list the first time it is touched inside
// the current baseline interval. A cache hit that merely refreshes lastSeen
// still counts: lastSeen drives future age-sweep evictions, which influence
// published bytes, so it must travel in the delta.
func (pub *Publisher) markDirty(e *cacheEntry) {
	if pub.deltaTrack && !e.dirty {
		e.dirty = true
		pub.dirtyCache = append(pub.dirtyCache, e)
	}
}

// CacheLen reports the number of live republication-cache entries
// (diagnostics and tests).
func (pub *Publisher) CacheLen() int { return len(pub.cache) }

// SetRepublicationCache enables or disables consistent republication
// (enabled by default). Disabling it redraws the perturbation every window
// even for unchanged supports — DELIBERATELY INSECURE: it re-opens the
// averaging attack of Prior Knowledge 2 and exists only so experiments and
// tests can demonstrate that attack.
func (pub *Publisher) SetRepublicationCache(enabled bool) {
	pub.cacheDisabled = !enabled
}

// Timing reports the cumulative time spent in bias optimization (the "Opt"
// cost of the paper's Fig. 8) and in the perturbation/publication itself
// (the "Basic" cost), across all Publish calls so far.
func (pub *Publisher) Timing() (opt, perturb time.Duration) {
	return pub.optDur, pub.perturbDur
}
