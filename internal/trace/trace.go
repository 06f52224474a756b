// Package trace is the per-window span tracer of the Butterfly service — an
// in-process flight recorder. Where the telemetry package answers "how is
// the run doing on aggregate", this package answers "what did window 48200
// spend its time on": every published window carries a root span with child
// spans per pipeline stage (source, mine, perturb, emit, checkpoint.save,
// resume) and per publisher phase (bias.opt, cache), each with numeric
// attributes (record counts, cache traffic, retry attempts). The server
// layer reuses the same ring with ingest-request roots (StartRoot with
// KindIngest, children parse/wal.append/wal.fsync/enqueue.wait), so a
// single per-stream trace shows a record's full path from HTTP accept to
// published window.
//
// The design is a flight recorder, not a streaming exporter:
//
//   - While a window is in flight, its spans are recorded into a plain,
//     fixed-size record owned EXCLUSIVELY by the pipeline goroutine currently
//     processing that window. Ownership moves with the window through the
//     stage channels, so recording a span is a handful of plain stores —
//     lock-free, allocation-free, and race-free by construction.
//   - When the window finishes, Commit copies the record into a fixed-size
//     ring of seqlock slots (all-atomic fields, writers never block readers,
//     readers retry torn reads), retaining the most recent Options.Windows
//     windows. Records are recycled through a free list, so the steady-state
//     hot path allocates nothing (asserted by testing.AllocsPerRun in the
//     package tests).
//   - A top-K slowest-window exemplar store survives ring eviction: the
//     windows an operator actually wants to inspect after a latency incident
//     are still there even if thousands of fast windows have since lapped
//     the ring.
//
// Snapshots (for the /debug/trace/events endpoint and -trace-out files) are
// encoded as Chrome trace-event JSON — loadable in Perfetto or
// chrome://tracing — by chrome.go; metrics.go mirrors span durations into
// the telemetry registry so traces and /metrics cross-reference by window
// id. Tracing is strictly observation-only: the pipeline's A/B identity
// tests pin published bytes identical with tracing on and off.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a span measured. Kinds are a closed set so span
// records stay fixed-size and allocation-free; String returns the stable
// name used in the Chrome JSON and the telemetry label.
type Kind uint8

const (
	// KindWindow is the root span: the whole life of one published window,
	// from the first record of its slide to its delivery (and checkpoint).
	KindWindow Kind = iota
	// KindSource is the aggregate time the mine stage spent blocked in
	// RecordSource.Next for this window's slide.
	KindSource
	// KindMine is the mine stage: record ingest + incremental mining +
	// snapshot materialization (excludes the hand-off backpressure).
	KindMine
	// KindPerturb is the perturb stage: the Butterfly sanitization of one
	// mining snapshot.
	KindPerturb
	// KindEmit is the emit stage: sink delivery including retries and their
	// backoff.
	KindEmit
	// KindCheckpointSave is the crash-safe snapshot write after delivery.
	KindCheckpointSave
	// KindResume is the checkpoint restore + source fast-forward on a
	// resumed run (a child of the first published window).
	KindResume
	// KindBiasOpt is the publisher's bias optimization (the paper's "Opt"
	// cost), a child of perturb.
	KindBiasOpt
	// KindCache is the publisher's perturbation/cache-consult phase, a child
	// of perturb carrying the cache hit/miss tally.
	KindCache
	// KindRetry is one failed delivery attempt that was retried, a child of
	// emit.
	KindRetry
	// KindIngest is a server-side root span: one HTTP ingest request's whole
	// life inside a stream, from the first parsed byte to the last record
	// enqueued (recorded by internal/server, not the pipeline).
	KindIngest
	// KindParse is the aggregate record-decode time of one ingest request, a
	// child of ingest.
	KindParse
	// KindWALAppend is the aggregate WAL encode+stage time of one ingest
	// request, a child of ingest.
	KindWALAppend
	// KindWALFsync is the group sync that made one ingest request durable
	// before its 2xx, a child of ingest.
	KindWALFsync
	// KindEnqueue is the time one ingest request spent blocked handing its
	// accepted records to the pipeline queue, a child of ingest.
	KindEnqueue

	numKinds = int(KindEnqueue) + 1
)

var kindNames = [numKinds]string{
	"window", "source", "mine", "perturb", "emit",
	"checkpoint.save", "resume", "bias.opt", "cache", "retry",
	"ingest", "parse", "wal.append", "wal.fsync", "enqueue.wait",
}

// String returns the stable span name ("mine", "checkpoint.save", ...).
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds returns every span kind, in declaration order (metrics registration
// and the doc-sync test iterate it).
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// AttrKey identifies a numeric span attribute. Like Kind it is a closed
// set, keeping attribute storage fixed-size.
type AttrKey uint8

const (
	// AttrWindow is the window id (the 1-based stream position of the
	// window's last record) — the join key against the telemetry gauges.
	AttrWindow AttrKey = iota
	// AttrRecords is the cumulative well-formed records consumed when the
	// window was mined.
	AttrRecords
	// AttrBadRecords is the cumulative malformed records skipped.
	AttrBadRecords
	// AttrRetries is the number of retried delivery attempts this window.
	AttrRetries
	// AttrAttempt is the 1-based attempt index on a retry span.
	AttrAttempt
	// AttrCacheHits is the republication-cache hits of this window.
	AttrCacheHits
	// AttrCacheMisses is the republication-cache misses of this window.
	AttrCacheMisses
	// AttrItemsets is the published itemset count of this window.
	AttrItemsets
	// AttrBiasReused is 1 when the bias optimization reused the previous
	// window's result (identical FEC ladder), else 0.
	AttrBiasReused
	// AttrLines is the accepted-line count of an ingest request (good + bad).
	AttrLines
	// AttrQueueLen is the pipeline queue depth observed when an ingest
	// request finished enqueuing.
	AttrQueueLen

	numAttrKeys = int(AttrQueueLen) + 1
)

var attrKeyNames = [numAttrKeys]string{
	"window", "records", "bad_records", "retries", "attempt",
	"cache_hits", "cache_misses", "itemsets", "bias_reused",
	"lines", "queue_len",
}

// String returns the stable attribute name used in the Chrome JSON args.
func (k AttrKey) String() string {
	if int(k) < numAttrKeys {
		return attrKeyNames[k]
	}
	return "unknown"
}

// Fixed record geometry. A window with more than MaxSpans spans (e.g. a
// pathological retry storm) drops the excess and counts it in Dropped.
const (
	// MaxSpans bounds the spans of one window record (root excluded).
	MaxSpans = 24
	// MaxAttrs bounds the attributes of one span.
	MaxAttrs = 6
)

// spanData is one completed span in an in-flight (plain, exclusively owned)
// window record. Times are nanoseconds since the tracer epoch.
type spanData struct {
	kind  Kind
	nattr int8
	start int64
	dur   int64
	akey  [MaxAttrs]AttrKey
	aval  [MaxAttrs]int64
}

// windowData is the plain form of one window's trace: the in-flight record,
// the exemplar-store slot, and the unit the seqlock ring copies.
type windowData struct {
	id      uint64 // window id (stream position); 0 until SetID
	commit  uint64 // commit sequence, assigned by Commit
	start   int64  // root span start, nanos since epoch
	dur     int64  // root span duration, set by Commit
	kind    Kind   // root span kind; zero value is KindWindow
	nroot   int8   // attributes on the root span
	nspans  int32
	dropped int32
	rkey    [MaxAttrs]AttrKey
	rval    [MaxAttrs]int64
	spans   [MaxSpans]spanData
}

func (d *windowData) reset() { *d = windowData{} }

// Window is the in-flight trace of one published window. It is owned by
// exactly one goroutine at a time — the pipeline hands it from stage to
// stage with the window itself, and the channel transfer provides the
// happens-before edge — so its methods perform plain stores: no locks, no
// atomics, no allocation. All methods are nil-receiver safe; a disabled
// tracer hands out nil Windows and the instrumentation call sites need no
// guards.
type Window struct {
	t *Tracer
	windowData
}

// SetID binds the window id (stream position). Call it as soon as the id is
// known; it is the join key against metrics and logs.
func (w *Window) SetID(id uint64) {
	if w != nil {
		w.id = id
	}
}

// Attr sets a root-span attribute (last write wins is not needed: keys are
// distinct by convention; a full attribute table drops the write).
func (w *Window) Attr(key AttrKey, val int64) {
	if w == nil {
		return
	}
	if int(w.nroot) < MaxAttrs {
		w.rkey[w.nroot] = key
		w.rval[w.nroot] = val
		w.nroot++
	}
}

// SpanRef addresses one recorded span of a Window for attribute writes. The
// zero value is inert.
type SpanRef struct {
	w *Window
	i int32 // 1-based; 0 = invalid
}

// Attr sets an attribute on the referenced span.
func (s SpanRef) Attr(key AttrKey, val int64) {
	if s.w == nil || s.i == 0 {
		return
	}
	sp := &s.w.spans[s.i-1]
	if int(sp.nattr) < MaxAttrs {
		sp.akey[sp.nattr] = key
		sp.aval[sp.nattr] = val
		sp.nattr++
	}
}

// Add records one completed span: it started at start and ran for d. Spans
// may be recorded in any order; the Chrome encoder renders nesting from
// time containment. Returns a SpanRef for attribute writes.
func (w *Window) Add(kind Kind, start time.Time, d time.Duration) SpanRef {
	if w == nil {
		return SpanRef{}
	}
	if w.nspans >= MaxSpans {
		w.dropped++
		return SpanRef{}
	}
	sp := &w.spans[w.nspans]
	sp.kind = kind
	sp.nattr = 0
	sp.start = start.Sub(w.t.epoch).Nanoseconds()
	sp.dur = d.Nanoseconds()
	w.nspans++
	return SpanRef{w: w, i: w.nspans}
}

// ringSpan is the all-atomic form of spanData inside a seqlock ring slot.
type ringSpan struct {
	word  atomic.Uint64 // kind<<8 | nattr
	start atomic.Int64
	dur   atomic.Int64
	akey  [MaxAttrs]atomic.Uint32
	aval  [MaxAttrs]atomic.Int64
}

// ringRec is one seqlock slot: seq is odd while a commit is copying into
// the slot; readers retry on a torn or in-progress read. Every data field
// is atomic, so concurrent copy-out is race-detector-clean.
type ringRec struct {
	seq     atomic.Uint64
	id      atomic.Uint64
	commit  atomic.Uint64
	start   atomic.Int64
	dur     atomic.Int64
	rootw   atomic.Uint64 // kind<<8 | nroot
	rkey    [MaxAttrs]atomic.Uint32
	rval    [MaxAttrs]atomic.Int64
	nspans  atomic.Int32
	dropped atomic.Int32
	spans   [MaxSpans]ringSpan
}

// store copies d into the slot (caller holds the seqlock write claim).
func (r *ringRec) store(d *windowData) {
	r.id.Store(d.id)
	r.commit.Store(d.commit)
	r.start.Store(d.start)
	r.dur.Store(d.dur)
	r.rootw.Store(uint64(d.kind)<<8 | uint64(d.nroot))
	for i := 0; i < int(d.nroot); i++ {
		r.rkey[i].Store(uint32(d.rkey[i]))
		r.rval[i].Store(d.rval[i])
	}
	n := d.nspans
	r.nspans.Store(n)
	r.dropped.Store(d.dropped)
	for i := int32(0); i < n; i++ {
		sp, dst := &d.spans[i], &r.spans[i]
		dst.word.Store(uint64(sp.kind)<<8 | uint64(sp.nattr))
		dst.start.Store(sp.start)
		dst.dur.Store(sp.dur)
		for a := 0; a < int(sp.nattr); a++ {
			dst.akey[a].Store(uint32(sp.akey[a]))
			dst.aval[a].Store(sp.aval[a])
		}
	}
}

// load copies the slot into d, returning false on a torn/in-progress/empty
// read (the caller retries or skips the slot).
func (r *ringRec) load(d *windowData) bool {
	for tries := 0; tries < 8; tries++ {
		s1 := r.seq.Load()
		if s1 == 0 {
			return false // never written
		}
		if s1%2 == 1 {
			continue // commit in progress
		}
		d.id = r.id.Load()
		d.commit = r.commit.Load()
		d.start = r.start.Load()
		d.dur = r.dur.Load()
		rootw := r.rootw.Load()
		d.kind = Kind(rootw >> 8)
		d.nroot = int8(rootw & 0xff)
		if d.nroot < 0 || int(d.nroot) > MaxAttrs {
			continue
		}
		for i := 0; i < int(d.nroot); i++ {
			d.rkey[i] = AttrKey(r.rkey[i].Load())
			d.rval[i] = r.rval[i].Load()
		}
		n := r.nspans.Load()
		if n < 0 || n > MaxSpans {
			continue
		}
		d.nspans = n
		d.dropped = r.dropped.Load()
		ok := true
		for i := int32(0); i < n; i++ {
			src, dst := &r.spans[i], &d.spans[i]
			word := src.word.Load()
			dst.kind = Kind(word >> 8)
			dst.nattr = int8(word & 0xff)
			if int(dst.nattr) > MaxAttrs {
				ok = false
				break
			}
			dst.start = src.start.Load()
			dst.dur = src.dur.Load()
			for a := 0; a < int(dst.nattr); a++ {
				dst.akey[a] = AttrKey(src.akey[a].Load())
				dst.aval[a] = src.aval[a].Load()
			}
		}
		if ok && r.seq.Load() == s1 {
			return true
		}
	}
	return false
}

// Options configures a Tracer.
type Options struct {
	// Windows is the ring capacity — how many recent windows the flight
	// recorder retains (default 256).
	Windows int
	// TopK is the slowest-window exemplar store size (default 8; 0 uses the
	// default, negative disables the store).
	TopK int
}

// Defaults for Options.
const (
	DefaultWindows = 256
	DefaultTopK    = 8
)

// Tracer is the flight recorder. All methods are safe for concurrent use
// and nil-receiver safe: a nil *Tracer is a disabled tracer whose
// StartRoot returns nil, making instrumented code zero-cost when tracing
// is off (one pointer test per call site).
type Tracer struct {
	epoch time.Time

	seq  atomic.Uint64 // commit sequence
	ring []ringRec

	free chan *Window

	exMu   sync.Mutex
	exRecs []windowData // top-K by root duration; dur==0 slots are empty
	exMin  atomic.Int64 // admission fast-path threshold once the store fills
	exFull atomic.Bool

	metrics *traceMetrics // see metrics.go; nil disables mirroring
}

// New returns a Tracer retaining the last opts.Windows windows.
func New(opts Options) *Tracer {
	if opts.Windows <= 0 {
		opts.Windows = DefaultWindows
	}
	topK := opts.TopK
	if topK == 0 {
		topK = DefaultTopK
	}
	if topK < 0 {
		topK = 0
	}
	t := &Tracer{
		epoch: time.Now(),
		ring:  make([]ringRec, opts.Windows),
		// The free list holds more records than the pipeline has windows in
		// flight, so the steady state never allocates; a drained list (e.g.
		// records abandoned by an aborted run) just re-allocates lazily.
		free:   make(chan *Window, 32),
		exRecs: make([]windowData, topK),
	}
	return t
}

// Capacity returns the ring size (retained windows).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// StartRoot begins recording one trace rooted at a span of the given kind —
// KindWindow for a published window, KindIngest for the server's ingest
// requests, so one ring carries both. Only KindWindow roots compete for the
// slowest-window exemplar store and gauge. start is a clock reading the
// caller already took at the same boundary, so the root span and the
// caller's own timers share one reading. The returned Window is exclusively
// owned by the caller (hand it off with the window itself); finish with
// Commit. A nil tracer returns a nil Window, whose methods all no-op.
func (t *Tracer) StartRoot(kind Kind, start time.Time) *Window {
	if t == nil {
		return nil
	}
	var w *Window
	select {
	case w = <-t.free:
		w.reset()
	default:
		w = &Window{}
	}
	w.t = t
	w.kind = kind
	w.start = start.Sub(t.epoch).Nanoseconds()
	return w
}

// Commit finalizes w's root span, which ends at end — the clock reading that
// closed its last span — publishes the record into the ring (evicting the
// oldest window), offers it to the slowest-window exemplar store, mirrors
// span durations into the telemetry registry (when SetMetrics was called),
// and recycles the record. w must not be used after Commit. Nil tracer or
// nil w no-op.
func (t *Tracer) Commit(w *Window, end time.Time) {
	if t == nil || w == nil {
		return
	}
	w.dur = end.Sub(t.epoch).Nanoseconds() - w.start
	if w.dur <= 0 {
		w.dur = 1 // keep committed records distinguishable from empty slots
	}
	w.commit = t.seq.Add(1)
	slot := &t.ring[int((w.commit-1)%uint64(len(t.ring)))]
	// Claim the slot's seqlock. Concurrent commits land on distinct slots
	// (the commit sequence spreads them); contention here needs two commits
	// a full ring apart racing — possible with tiny test rings, so spin.
	for {
		s := slot.seq.Load()
		if s%2 == 0 && slot.seq.CompareAndSwap(s, s+1) {
			break
		}
	}
	slot.store(&w.windowData)
	slot.seq.Add(1)

	if w.kind == KindWindow {
		t.admitExemplar(&w.windowData)
	}
	t.observe(&w.windowData)

	select {
	case t.free <- w:
	default: // free list full; let the GC take it
	}
}

// admitExemplar offers one committed window to the top-K store. The fast
// path — window no slower than the current K-th slowest once the store is
// full — is two atomic loads; admission itself copies into a pre-allocated
// slot under a short mutex.
func (t *Tracer) admitExemplar(d *windowData) {
	if len(t.exRecs) == 0 {
		return
	}
	if t.exFull.Load() && d.dur <= t.exMin.Load() {
		return
	}
	t.exMu.Lock()
	defer t.exMu.Unlock()
	minIdx, minDur := -1, int64(0)
	for i := range t.exRecs {
		e := &t.exRecs[i]
		if e.dur == 0 { // empty slot
			minIdx, minDur = i, 0
			break
		}
		if minIdx == -1 || e.dur < minDur {
			minIdx, minDur = i, e.dur
		}
	}
	if d.dur <= minDur && t.exRecs[minIdx].dur != 0 {
		return
	}
	t.exRecs[minIdx] = *d
	newMin, full := int64(0), true
	for i := range t.exRecs {
		e := &t.exRecs[i]
		if e.dur == 0 {
			full = false
			continue
		}
		if newMin == 0 || e.dur < newMin {
			newMin = e.dur
		}
	}
	t.exMin.Store(newMin)
	t.exFull.Store(full)
}

// Attr is one decoded span attribute.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// Span is one decoded span of a snapshot record.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start"` // since the tracer epoch
	Dur   time.Duration `json:"dur"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Record is one root span's decoded trace (a window, or a server-side
// ingest request).
type Record struct {
	Window  uint64        `json:"window"`
	Kind    string        `json:"kind"` // root span kind ("window", "ingest", ...)
	Seq     uint64        `json:"seq"`  // commit order
	Start   time.Duration `json:"start"`
	Dur     time.Duration `json:"dur"`
	Dropped int           `json:"dropped,omitempty"`
	Attrs   []Attr        `json:"attrs,omitempty"`
	Spans   []Span        `json:"spans"`
}

func decodeAttrs(n int, keys *[MaxAttrs]AttrKey, vals *[MaxAttrs]int64) []Attr {
	if n == 0 {
		return nil
	}
	out := make([]Attr, n)
	for i := 0; i < n; i++ {
		out[i] = Attr{Key: keys[i].String(), Val: vals[i]}
	}
	return out
}

func (d *windowData) record() Record {
	rec := Record{
		Window:  d.id,
		Kind:    d.kind.String(),
		Seq:     d.commit,
		Start:   time.Duration(d.start),
		Dur:     time.Duration(d.dur),
		Dropped: int(d.dropped),
		Attrs:   decodeAttrs(int(d.nroot), &d.rkey, &d.rval),
		Spans:   make([]Span, d.nspans),
	}
	for i := int32(0); i < d.nspans; i++ {
		sp := &d.spans[i]
		rec.Spans[i] = Span{
			Name:  sp.kind.String(),
			Start: time.Duration(sp.start),
			Dur:   time.Duration(sp.dur),
			Attrs: decodeAttrs(int(sp.nattr), &sp.akey, &sp.aval),
		}
	}
	return rec
}

// Snapshot decodes the retained windows — the ring union the slowest-window
// exemplars, de-duplicated — sorted by commit order. It never blocks
// writers; a slot mid-commit is skipped after bounded retries. Safe to call
// at any time, including concurrently with commits; nil tracer returns nil.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	seen := make(map[uint64]bool, len(t.ring))
	out := make([]Record, 0, len(t.ring)+len(t.exRecs))
	var d windowData
	for i := range t.ring {
		if t.ring[i].load(&d) && !seen[d.commit] {
			seen[d.commit] = true
			out = append(out, d.record())
		}
	}
	t.exMu.Lock()
	for i := range t.exRecs {
		e := &t.exRecs[i]
		if e.dur != 0 && !seen[e.commit] {
			seen[e.commit] = true
			out = append(out, e.record())
		}
	}
	t.exMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Exemplars decodes just the slowest-window store, slowest first.
func (t *Tracer) Exemplars() []Record {
	if t == nil {
		return nil
	}
	t.exMu.Lock()
	out := make([]Record, 0, len(t.exRecs))
	for i := range t.exRecs {
		if e := &t.exRecs[i]; e.dur != 0 {
			out = append(out, e.record())
		}
	}
	t.exMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}
