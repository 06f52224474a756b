package server

// Per-stream state: the ingest queue and its RecordSource adapter, the
// pause gate, the replay buffer that makes in-process restarts
// deterministic, the published-window store, and the stream state machine.
// The Server (server.go) owns the registry and the supervision loop; the
// HTTP layer (http.go) translates requests into the methods here.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Stream states, as reported by the control plane.
const (
	// StateRunning: the supervised pipeline is live and consuming ingest.
	StateRunning = "running"
	// StatePaused: ingest is refused and the source gate is closed;
	// windows already inside the pipeline still finish.
	StatePaused = "paused"
	// StateQuarantined: the circuit breaker tripped — BreakerFailures
	// consecutive window failures without progress. The stream's state and
	// windows remain inspectable; ingest is refused; a control-plane
	// resume resets the breaker and restarts from the last checkpoint.
	StateQuarantined = "quarantined"
	// StateDone: the stream was closed and drained to its final window
	// (and final checkpoint when checkpointing is on).
	StateDone = "done"
	// StateFailed: the run ended in a non-restartable way (for example a
	// stream closed before its window ever filled).
	StateFailed = "failed"
)

// queueItem is one ingest unit: a well-formed record, or a malformed line
// carried as its *data.ParseError so the pipeline's bad-record budget sees
// it exactly where it occurred in the stream.
type queueItem struct {
	rec itemset.Itemset
	bad *data.ParseError
	// seq is the count of well-formed records up to and including this
	// item (a bad item carries the seq of the preceding good one) — the
	// coordinate the replay buffer is pruned and restarted by.
	seq uint64
	// line is the 1-based cumulative accepted-line index (good + bad) — the
	// WAL's coordinate and the ?offset= dedup protocol's unit.
	line uint64
	// size is the item's approximate in-memory footprint, charged against
	// the server-wide inflight-bytes admission cap.
	size int64
	// enq is the wall-clock acceptance stamp (unix nanos), set when the
	// item's request group became durable and visible; zero on replay
	// items. Feeds the queue-age and end-to-end latency histograms only —
	// never the pipeline.
	enq int64
}

func itemSize(it queueItem) int64 {
	if it.bad != nil {
		return 48
	}
	return 16 + 8*int64(it.rec.Len())
}

// publishedWindow is one sanitized release retained for GET /windows: the
// stream position plus the rendered audit-format body (the same bytes
// cmd/butterfly -dump-dir writes).
type publishedWindow struct {
	Position int    `json:"position"`
	Body     string `json:"body"`
}

// stream is one hosted sanitized stream.
type stream struct {
	id  string
	cfg StreamConfig
	srv *Server

	// Pipeline plumbing, fixed at creation. vocab is shared between the
	// ingest handlers (interning) and the emit path (rendering); it is
	// internally synchronized.
	pipeCfg pipeline.Config
	vocab   *data.Vocabulary
	store   *checkpoint.Store
	lease   *checkpoint.Lease
	release sync.Once
	tracer  *trace.Tracer

	// Durable-acceptance plumbing (nil without a server data dir): the
	// per-stream ingest WAL and the append-only token journal it depends
	// on. Fixed at creation/adoption, before the stream is visible.
	wal      *wal.Log
	tokens   *wal.TokenLog
	closeDur sync.Once
	// walBase is the accepted-line count recovered from the WAL at
	// adoption: lines at or below it were never enqueued by this process
	// and restart replay must always re-read them from the log. Immutable
	// after adoption.
	walBase uint64

	// Ingest: ingestMu serializes enqueues with the close of the queue
	// (so a handler can never send on a closed channel) and makes
	// concurrent POSTs to one stream append in lock-acquisition order.
	ingestMu sync.Mutex
	queue    chan queueItem
	closed   bool   // ingest closed; queue drains to io.EOF
	seq      uint64 // good records accepted, under ingestMu
	lines    uint64 // lines accepted (good + bad), under ingestMu

	runCtx context.Context
	stop   context.CancelFunc

	// progress is set by emit whenever a window is delivered; the
	// supervisor uses it to reset the consecutive-failure breaker.
	progress atomic.Bool

	// Per-stream labeled instruments (see metrics.go).
	mRecords *telemetry.Counter
	mWindows *telemetry.Counter

	// Latency bookkeeping (metrics-only, observation-only).
	lastCkptAt atomic.Int64 // unix nanos of the newest persisted checkpoint generation
	lastEmit   atomic.Int64 // unix nanos of the newest emitted window
	e2eStamps  e2eRing      // acceptance stamps keyed by record seq, under st.mu

	mu           sync.Mutex
	state        string
	lastErr      string
	unpaused     chan struct{} // closed when not paused
	done         chan struct{} // closed when the current supervision session exits
	consumed     uint64        // good records pulled from the queue by the source
	consumedLine uint64        // newest accepted line consumed by the source
	badSeen      uint64        // malformed lines accepted into the queue
	retained     []queueItem   // consumed items not yet covered by a checkpoint (memory-only mode)
	replayLost   bool          // retained overflowed ReplayLimit; restart is impossible
	consecFails  int
	restarts     int
	lastCkpt     uint64 // Records position of the newest checkpoint saved
	prevCkptLine uint64 // line position of the checkpoint before the newest (WAL truncation horizon)
	windows      []publishedWindow
	winTrunc     bool // oldest windows were evicted past the history limit
}

// closedChan is the shared always-open pause gate.
var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// e2eRingSize bounds the per-stream end-to-end stamp table. Windows publish
// on the seq of their last record, so the table only needs to span one
// publish interval plus the queue; seqs further apart than the ring simply
// lose their exemplar (the histogram skips them, never mis-measures).
const e2eRingSize = 4096

// e2eRing maps record seq → acceptance stamp (unix nanos) for the most
// recent e2eRingSize good records. Guarded by the stream's st.mu.
type e2eRing struct {
	seq [e2eRingSize]uint64
	at  [e2eRingSize]int64
}

func (r *e2eRing) put(seq uint64, at int64) {
	i := seq % e2eRingSize
	r.seq[i], r.at[i] = seq, at
}

// take returns and clears the stamp for seq, so a window re-published after
// a restart cannot observe a stale acceptance time twice.
func (r *e2eRing) take(seq uint64) (int64, bool) {
	i := seq % e2eRingSize
	if r.seq[i] != seq || r.at[i] == 0 {
		return 0, false
	}
	at := r.at[i]
	r.seq[i], r.at[i] = 0, 0
	return at, true
}

// ---- state machine ----

func (st *stream) setState(s string, lastErr error) {
	st.mu.Lock()
	prev := st.state
	st.state = s
	if lastErr != nil {
		st.lastErr = lastErr.Error()
	}
	st.mu.Unlock()
	if prev != s {
		st.srv.metrics.moveState(prev, s)
	}
}

func (st *stream) currentState() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.state
}

// pause closes the source gate. Only a running stream can pause.
func (st *stream) pause() error {
	st.mu.Lock()
	if st.state != StateRunning {
		s := st.state
		st.mu.Unlock()
		return fmt.Errorf("stream is %s, not %s", s, StateRunning)
	}
	st.state = StatePaused
	st.unpaused = make(chan struct{})
	st.mu.Unlock()
	st.srv.metrics.moveState(StateRunning, StatePaused)
	return nil
}

// unpause reopens the source gate (idempotent; used by resume and drain).
func (st *stream) unpause() {
	st.mu.Lock()
	wasPaused := st.state == StatePaused
	if wasPaused {
		st.state = StateRunning
	}
	ch := st.unpaused
	st.unpaused = closedChan
	st.mu.Unlock()
	if ch != closedChan {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	if wasPaused {
		st.srv.metrics.moveState(StatePaused, StateRunning)
	}
}

// gate returns the channel a source read must wait on; it is closed
// whenever the stream is not paused.
func (st *stream) gate() <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.unpaused
}

// runDone returns the channel closed when the current supervision session
// exits (quarantine, done, failed, or stop).
func (st *stream) runDone() <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.done
}

// ---- ingest ----

// errStreamClosed / friends classify ingest rejections for the HTTP layer.
var (
	errStreamClosed      = fmt.Errorf("stream ingest is closed")
	errStreamPaused      = fmt.Errorf("stream is paused")
	errStreamQuarantined = fmt.Errorf("stream is quarantined")
	errBackpressure      = fmt.Errorf("ingest queue full")
	errOverload          = fmt.Errorf("server inflight-bytes cap reached")
	errOffsetGap         = fmt.Errorf("ingest offset beyond accepted lines")
	errDurability        = fmt.Errorf("ingest durability sync failed")
)

// lineGuard releases bytes from an ingest body only up to the last '\n'
// seen, holding back the trailing partial line. On clean EOF the held tail
// is the client's final line and is flushed; when the body errors mid-read
// (dropped connection, truncated upload) the tail is discarded — a record
// cut off by the failure must never be committed, because the client
// retries from its accepted offset with the complete line.
type lineGuard struct {
	r       io.Reader
	chunk   []byte
	pending []byte // bytes after the last delivered '\n'
	out     []byte // complete lines ready to deliver
	err     error  // terminal: io.EOF or the body error
}

func (g *lineGuard) Read(p []byte) (int, error) {
	for len(g.out) == 0 {
		if g.err != nil {
			return 0, g.err
		}
		if g.chunk == nil {
			g.chunk = make([]byte, 32*1024)
		}
		n, err := g.r.Read(g.chunk)
		g.pending = append(g.pending, g.chunk[:n]...)
		if i := bytes.LastIndexByte(g.pending, '\n'); i >= 0 {
			g.out = append(g.out, g.pending[:i+1]...)
			g.pending = g.pending[i+1:]
		}
		switch {
		case err == io.EOF:
			g.out = append(g.out, g.pending...)
			g.pending = nil
			g.err = io.EOF
		case err != nil:
			g.pending = nil
			g.err = err
		}
	}
	n := copy(p, g.out)
	g.out = g.out[n:]
	return n, nil
}

// acceptedLines returns the stream's cumulative accepted-line count — the
// offset a well-behaved client should resume from. Reported with every
// ingest response so a client whose acked count fell behind the stream
// (recovery adopted synced-but-unacknowledged frames from a torn group)
// can fast-forward instead of re-sending lines that will only be skipped.
func (st *stream) acceptedLines() uint64 {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	return st.lines
}

// ingest parses the request body incrementally (one transaction per line)
// and accepts records until the body ends, the per-stream queue fills
// (backpressure), or the server-wide inflight cap is hit (overload). It
// returns how many lines were accepted (good + bad); the caller maps err
// to 429/503/4xx. Partial acceptance is the contract: the client retries
// from its accepted offset.
//
// offset, when >= 0, is the client's count of lines it knows the stream
// accepted: the stream skips the overlap (already-accepted lines re-sent
// after a lost response), making retries idempotent. An offset ahead of
// the stream is a gap — records the client believes accepted that the
// stream never saw — and is refused with errOffsetGap.
//
// With a WAL, acceptance is durable acceptance: records stage in memory,
// the request's whole group is appended to the WAL and fsynced (token
// journal first — WAL frames reference its ids — then the frames), and
// only then do the records become visible to the pipeline and countable in
// the response. A group whose append or sync fails is unwound as if it
// never arrived, and the client re-sends it.
func (st *stream) ingest(body io.Reader, offset int64) (accepted int, bad int, err error) {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	switch {
	case st.closed:
		return 0, 0, errStreamClosed
	}
	switch st.currentState() {
	case StatePaused:
		return 0, 0, errStreamPaused
	case StateQuarantined:
		return 0, 0, errStreamQuarantined
	case StateFailed:
		return 0, 0, errStreamClosed
	}
	var skip uint64
	if offset >= 0 {
		if o := uint64(offset); o > st.lines {
			return 0, 0, fmt.Errorf("%w: offset %d, stream has accepted %d lines",
				errOffsetGap, offset, st.lines)
		} else {
			skip = st.lines - o
		}
	}
	lines0, seq0 := st.lines, st.seq
	var (
		staged      []queueItem
		stagedBytes int64
		badStaged   uint64
	)
	// The request runs in four phases — parse, WAL append, fsync, enqueue —
	// timed by five clock readings, never per record. The readings feed the
	// request's trace (an ingest root with one child per phase), the ingest
	// and WAL-append histograms, and the enqueue stamp behind queue age and
	// end-to-end latency; all of it is observation-only.
	t0 := time.Now()
	// Phase 1: parse and admit every line into staged.
	tr := data.NewTransactionReader(&lineGuard{r: body}, st.vocab)
parse:
	for {
		rec, rerr := tr.Next()
		var item queueItem
		switch {
		case rerr == io.EOF:
			break parse
		case rerr == nil:
			if skip > 0 {
				skip--
				continue
			}
			item = queueItem{rec: rec, seq: st.seq + 1, line: st.lines + 1}
		default:
			pe, ok := rerr.(*data.ParseError)
			if !ok {
				// The body itself failed mid-read (truncated upload, dropped
				// client): everything staged so far stays accepted.
				err = fmt.Errorf("reading ingest body: %w", rerr)
				break parse
			}
			if skip > 0 {
				skip--
				continue
			}
			// Re-home the line number onto the stream's cumulative
			// accepted-line space (the WAL's coordinate) for the audit trail.
			item = queueItem{
				bad:  &data.ParseError{Line: int(st.lines) + 1, Token: pe.Token, Err: pe.Err},
				seq:  st.seq,
				line: st.lines + 1,
			}
		}
		item.size = itemSize(item)
		if st.srv.inflight.Load()+stagedBytes+item.size > st.srv.opts.MaxInflightBytes {
			err = errOverload
			break parse
		}
		// Reserve queue capacity up front: this goroutine is the only
		// sender, so len can only shrink and the enqueue phase below can
		// never block.
		if len(st.queue)+len(staged) >= cap(st.queue) {
			err = errBackpressure
			break parse
		}
		staged = append(staged, item)
		stagedBytes += item.size
		if item.bad != nil {
			badStaged++
		} else {
			st.seq++
		}
		st.lines++
	}
	if len(staged) == 0 {
		return 0, 0, err
	}
	t1 := time.Now()
	// Phase 2: append the staged group to the WAL. Append fails only on a
	// log a failed Sync or closeDurable already shut, and either makes this
	// group's Sync fail too, so an append error unwinds the group exactly
	// like the sync failure below.
	if st.wal != nil {
		for _, it := range staged {
			if werr := st.wal.Append(wal.Record{Line: it.line, Seq: it.seq, Rec: it.rec, Bad: it.bad}); werr != nil {
				st.lines, st.seq = lines0, seq0
				return 0, 0, fmt.Errorf("%w: %v", errDurability, werr)
			}
		}
	}
	t2 := time.Now()
	// Phase 3, the durability barrier: nothing below is acknowledged or
	// handed to the pipeline before the group's fsyncs return.
	if serr := st.syncDurable(); serr != nil {
		// Unwind the acceptance: the staged lines never reached the disk or
		// the pipeline, so the counters must not claim them — the client
		// re-sends from its own offset and the dedup stays exact.
		st.lines, st.seq = lines0, seq0
		return 0, 0, fmt.Errorf("%w: %v", errDurability, serr)
	}
	t3 := time.Now()
	// Phase 4, visibility: charge the admission accounting and hand the
	// group to the pipeline. Capacity was reserved during staging, so these
	// sends cannot block.
	enqAt := t3.UnixNano()
	for _, it := range staged {
		it.enq = enqAt
		st.srv.addInflight(it.size)
		st.queue <- it
		if it.bad != nil {
			bad++
		} else {
			st.mRecords.Inc()
		}
		accepted++
	}
	if badStaged > 0 {
		st.mu.Lock()
		st.badSeen += badStaged
		st.mu.Unlock()
	}
	t4 := time.Now()
	rw := st.tracer.StartRoot(trace.KindIngest, t0)
	rw.SetID(st.lines)
	rw.Add(trace.KindParse, t0, t1.Sub(t0))
	if st.wal != nil {
		rw.Add(trace.KindWALAppend, t1, t2.Sub(t1))
		rw.Add(trace.KindWALFsync, t2, t3.Sub(t2))
		st.srv.metrics.observeWALAppend(t2.Sub(t1))
	}
	rw.Add(trace.KindEnqueue, t3, t4.Sub(t3))
	rw.Attr(trace.AttrLines, int64(accepted))
	rw.Attr(trace.AttrRecords, int64(accepted-bad))
	rw.Attr(trace.AttrBadRecords, int64(bad))
	rw.Attr(trace.AttrQueueLen, int64(len(st.queue)))
	st.tracer.Commit(rw, t4)
	st.srv.metrics.observeIngest(t4.Sub(t0))
	return accepted, bad, err
}

// syncDurable fsyncs everything the current request accepted: newly
// interned vocabulary tokens first — so no durable WAL frame can ever
// reference an id the token journal does not cover — then the WAL group.
// Called with ingestMu held; a nil WAL makes it a no-op.
func (st *stream) syncDurable() error {
	if st.wal == nil {
		return nil
	}
	if n, total := st.tokens.Len(), st.vocab.Len(); total > n {
		toks := make([]string, 0, total-n)
		for i := n; i < total; i++ {
			toks = append(toks, st.vocab.Token(itemset.Item(i)))
		}
		st.tokens.Append(toks)
	}
	if err := st.tokens.Sync(); err != nil {
		return err
	}
	return st.wal.Sync()
}

// openDurable opens the stream's token journal and ingest WAL in dir,
// pre-interning recovered tokens so replayed WAL item ids resolve to the
// same strings they were written under. The returned report describes what
// WAL recovery found (always clean on a freshly-wiped create).
func (st *stream) openDurable(dir string, warnf func(string, ...any)) (wal.Report, error) {
	tlog, toks, err := wal.OpenTokens(dir, warnf)
	if err != nil {
		return wal.Report{}, fmt.Errorf("opening token journal: %w", err)
	}
	st.tokens = tlog
	for _, tok := range toks {
		st.vocab.ID(tok)
	}
	lg, rep, err := wal.Open(dir, wal.Options{
		SegmentBytes: st.srv.opts.WALSegmentBytes,
		Logf:         warnf,
		Metrics:      st.srv.opts.Registry,
		Stream:       st.id,
	})
	if err != nil {
		return wal.Report{}, fmt.Errorf("opening ingest wal: %w", err)
	}
	st.wal = lg
	if st.srv.opts.hookWAL != nil {
		st.srv.opts.hookWAL(st.id, lg)
	}
	return rep, nil
}

// closeIngest ends the stream: the queue drains to io.EOF, the pipeline
// publishes the final window and writes the final checkpoint. Idempotent.
func (st *stream) closeIngest() {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	if !st.closed {
		st.closed = true
		close(st.queue)
	}
}

// drainQueue empties whatever ingest is still queued (delete path) and
// refunds the inflight-bytes accounting.
func (st *stream) drainQueue() {
	for {
		select {
		case it, ok := <-st.queue:
			if !ok {
				return
			}
			st.srv.addInflight(-it.size)
		default:
			return
		}
	}
}

// ---- source ----

// queueSource adapts the ingest queue to pipeline.RecordSource, replaying
// a synthetic skip prefix plus the retained tail first after a restart.
//
// The synth prefix exists because a resumed pipeline discards its first
// snapshot.Records well-formed records (they are already inside the
// restored window buffer); in-process the real records are gone — consumed
// and pruned — so the source synthesizes placeholders that the pipeline
// discards without ever pushing into the window.
//
// Each pipeline run gets its own queueSource scoped by ctx. RunContext can
// return from a failed run while the mine stage is still inside Next()
// (cancellation latency), so the supervisor must retire() the source — and
// wait for that in-flight read to land in the consumption accounting —
// before it reads the stream state to build the restart. Without the
// handshake a record dequeued by the dying run after buildRestart misses
// the replay buffer and is silently lost.
type queueSource struct {
	st     *stream
	ctx    context.Context
	synth  uint64
	replay []queueItem
	next   int

	mu      sync.Mutex
	dead    bool
	pending int
	settled chan struct{} // closed once dead with no pending Next
}

func newQueueSource(st *stream, ctx context.Context, synth uint64, replay []queueItem) *queueSource {
	return &queueSource{st: st, ctx: ctx, synth: synth, replay: replay,
		settled: make(chan struct{})}
}

// begin registers an in-flight Next call; it refuses once the source is
// retired so a straggling mine stage can never consume another record.
func (qs *queueSource) begin() bool {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if qs.dead {
		return false
	}
	qs.pending++
	return true
}

func (qs *queueSource) end() {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.pending--
	if qs.dead && qs.pending == 0 {
		close(qs.settled)
	}
}

// retire cancels the run context, marks the source dead, and blocks until
// any in-flight Next call has finished — after which the stream's consumed
// count and replay buffer are guaranteed to cover everything this run ever
// dequeued. cancel wakes a Next blocked on an empty queue; a Next that
// instead wins the race and dequeues one final record is waited for, and
// that record lands in the replay buffer rather than being lost.
func (qs *queueSource) retire(cancel context.CancelFunc) {
	cancel()
	qs.mu.Lock()
	if qs.dead {
		qs.mu.Unlock()
		<-qs.settled
		return
	}
	qs.dead = true
	if qs.pending == 0 {
		close(qs.settled)
	}
	qs.mu.Unlock()
	<-qs.settled
}

func (qs *queueSource) Next() (itemset.Itemset, error) {
	if !qs.begin() {
		return itemset.Itemset{}, context.Canceled
	}
	defer qs.end()
	st := qs.st
	for {
		select { // pause gate first: a paused stream delivers nothing new
		case <-st.gate():
		case <-qs.ctx.Done():
			return itemset.Itemset{}, qs.ctx.Err()
		}
		if qs.synth > 0 {
			qs.synth--
			return itemset.Itemset{}, nil
		}
		if qs.next < len(qs.replay) {
			it := qs.replay[qs.next]
			qs.next++
			if st.wal != nil {
				// WAL replay items after a process restart were never consumed
				// by this incarnation; the watermarks must advance here. (The
				// memory-only retained buffer accounted its items when they
				// were first consumed, so it changes nothing on replay.)
				st.noteReplayed(it)
			}
			if it.bad != nil {
				return itemset.Itemset{}, it.bad
			}
			return it.rec, nil
		}
		select {
		case it, ok := <-st.queue:
			if !ok {
				return itemset.Itemset{}, io.EOF
			}
			st.noteConsumed(it)
			if it.bad != nil {
				return itemset.Itemset{}, it.bad
			}
			return it.rec, nil
		case <-qs.ctx.Done():
			return itemset.Itemset{}, qs.ctx.Err()
		}
	}
}

// noteConsumed updates the consumption accounting for one freshly-dequeued
// item and, in memory-only mode, moves it into the retained replay buffer.
// In durable mode the WAL tail is the replay buffer and nothing is retained.
func (st *stream) noteConsumed(it queueItem) {
	st.srv.addInflight(-it.size)
	var now int64
	if m := st.srv.metrics; m != nil && it.enq > 0 {
		now = time.Now().UnixNano()
		m.observeQueueAge(time.Duration(now - it.enq))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if it.bad == nil {
		st.consumed = it.seq
		if now > 0 {
			st.e2eStamps.put(it.seq, it.enq)
		}
	}
	if it.line > st.consumedLine {
		st.consumedLine = it.line
	}
	if st.wal != nil {
		return
	}
	if st.replayLost {
		return
	}
	if len(st.retained) >= st.srv.opts.ReplayLimit {
		// The window between checkpoints outgrew the replay budget; give
		// the memory back. A later restart attempt quarantines cleanly
		// instead of replaying a gap.
		st.retained = nil
		st.replayLost = true
		return
	}
	st.retained = append(st.retained, it)
}

// noteReplayed advances the consumption watermarks for an item delivered
// from a WAL replay list — with max semantics, because an in-process
// restart can replay items an earlier attempt already accounted.
func (st *stream) noteReplayed(it queueItem) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if it.bad == nil && it.seq > st.consumed {
		st.consumed = it.seq
	}
	if it.line > st.consumedLine {
		st.consumedLine = it.line
	}
}

// onCheckpointSave runs on every persisted checkpoint generation (wired to
// checkpoint.Store.OnSave): it advances the checkpoint watermarks, prunes
// WAL segments in durable mode, and prunes the retained replay buffer in
// memory-only mode.
//
// Only FULL snapshots move the WAL truncation floor. A delta frame is
// recoverable only by replaying its whole chain from the anchor full, so
// the records between the anchor and the chain tip must stay replayable —
// truncating up to a delta would strand the chain if its tail is later
// torn. Memory-only replay pruning has the same shape: the retained buffer
// must still cover everything after the newest FULL snapshot.
//
// The truncation additionally lags one full generation on purpose: restart
// loads the newest READABLE snapshot, and if the newest file is lost to bit
// rot the fallback generation still needs its WAL tail. The lag costs at
// most one compaction interval of extra segments.
func (st *stream) onCheckpointSave(sv checkpoint.Saved) {
	st.lastCkptAt.Store(time.Now().UnixNano())
	st.mu.Lock()
	st.lastCkpt = sv.Records
	if !sv.Full {
		st.mu.Unlock()
		return
	}
	horizon := st.prevCkptLine
	st.prevCkptLine = sv.Records + sv.BadRecords
	if st.wal == nil {
		i := 0
		for i < len(st.retained) && st.retained[i].seq <= sv.Records {
			i++
		}
		if i > 0 {
			st.retained = append(st.retained[:0], st.retained[i:]...)
		}
		// A fresh full checkpoint re-arms replayability: everything after
		// it is retained from here on.
		if st.replayLost && len(st.retained) == 0 && st.consumed == sv.Records {
			st.replayLost = false
		}
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()
	if err := st.wal.TruncateBefore(horizon); err != nil {
		st.srv.log.Warn("wal truncation failed", "stream", st.id, "error", err.Error())
	}
}

// buildRestart assembles the deterministic-restart inputs: the resume
// snapshot (nil for a from-scratch restart), the synthetic skip prefix,
// and the tail to replay — read back from the WAL in durable mode, or
// taken from the retained buffer in memory-only mode (verifying it
// actually covers the gap between the snapshot and the consumption point).
func (st *stream) buildRestart() (snap *checkpoint.Snapshot, synth uint64, replay []queueItem, err error) {
	if st.store != nil {
		snap, _, err = st.store.Latest()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("loading restart checkpoint: %w", err)
		}
	}
	var want uint64
	if snap != nil {
		want = snap.Records
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	consumed := st.consumed
	if st.wal != nil {
		// The replay bound: everything the pipeline may already have seen.
		// consumedLine covers this incarnation's consumption; walBase covers
		// lines recovered at adoption (never in this process's queue). Lines
		// past the bound are still queued and will arrive normally.
		bound := st.consumedLine
		if st.walBase > bound {
			bound = st.walBase
		}
		if consumed < want {
			// Crashed while still fast-forwarding a resume: re-present
			// everything consumed so far (the pipeline discards it again as
			// part of its own skip) and keep the snapshot.
			recs, terr := st.wal.Tail(0, bound)
			if terr != nil {
				return nil, 0, nil, fmt.Errorf("wal replay: %w", terr)
			}
			return snap, 0, walItems(recs), nil
		}
		var ckptLine uint64
		if snap != nil {
			ckptLine = snap.Records + snap.BadRecords
		}
		recs, terr := st.wal.Tail(ckptLine, bound)
		if terr != nil {
			return nil, 0, nil, fmt.Errorf("wal replay: %w", terr)
		}
		return snap, want, walItems(recs), nil
	}
	if st.replayLost {
		return nil, 0, nil, fmt.Errorf("replay buffer overflowed ReplayLimit between checkpoints; cannot restart deterministically")
	}
	if consumed < want {
		// Crashed while still fast-forwarding a process-restart resume:
		// re-present everything consumed so far (the pipeline discards it
		// again as part of its own skip) and keep the snapshot.
		synth = 0
		replay = append([]queueItem(nil), st.retained...)
		if gap := verifyReplay(replay, 0, consumed); gap != "" {
			return nil, 0, nil, fmt.Errorf("replay buffer %s", gap)
		}
		return snap, synth, replay, nil
	}
	synth = want
	for _, it := range st.retained {
		if it.seq > want {
			replay = append(replay, it)
		}
	}
	if gap := verifyReplay(replay, want, consumed); gap != "" {
		return nil, 0, nil, fmt.Errorf("replay buffer %s", gap)
	}
	return snap, synth, replay, nil
}

// walItems converts WAL records into replay queue items. Their inflight
// bytes were refunded when first consumed (or never charged, for lines
// recovered at boot), so size stays zero.
func walItems(recs []wal.Record) []queueItem {
	items := make([]queueItem, 0, len(recs))
	for _, r := range recs {
		items = append(items, queueItem{rec: r.Rec, bad: r.Bad, seq: r.Seq, line: r.Line})
	}
	return items
}

// verifyReplay checks that the good records in replay are exactly
// from+1 .. to, in order; it returns a description of the gap otherwise.
func verifyReplay(replay []queueItem, from, to uint64) string {
	next := from + 1
	for _, it := range replay {
		if it.bad != nil {
			continue
		}
		if it.seq != next {
			return fmt.Sprintf("skips from record %d to %d", next-1, it.seq)
		}
		next++
	}
	if next != to+1 {
		return fmt.Sprintf("ends at record %d, need %d", next-1, to)
	}
	return ""
}

// ---- emit ----

// emit renders one published window into the audit format and stores it
// for GET /windows. Re-published windows after a restart overwrite their
// position idempotently (consistent republication guarantees the bytes
// match anyway).
func (st *stream) emit(w pipeline.Window) error {
	entries := make([]data.PublishedEntry, 0, len(w.Output.Items))
	for _, it := range w.Output.Items {
		entries = append(entries, data.PublishedEntry{Support: it.Support, Set: it.Set})
	}
	var buf bytes.Buffer
	if err := data.WritePublished(&buf, entries, st.vocab); err != nil {
		return fmt.Errorf("rendering window at position %d: %w", w.Position, err)
	}
	st.storeWindow(w.Position, buf.String())
	st.progress.Store(true)
	st.mWindows.Inc()
	if m := st.srv.metrics; m != nil {
		now := time.Now().UnixNano()
		st.lastEmit.Store(now)
		st.mu.Lock()
		at, ok := st.e2eStamps.take(uint64(w.Position))
		st.mu.Unlock()
		if ok && now > at {
			m.observeE2E(st.id, uint64(w.Position), float64(now-at)/1e9)
		}
	}
	return nil
}

// checkpointAge returns seconds since the stream's last persisted
// checkpoint generation (0 before the first save) — the pull-style
// staleness gauge and the status JSON read it.
func (st *stream) checkpointAge() float64 {
	at := st.lastCkptAt.Load()
	if at == 0 {
		return 0
	}
	return time.Since(time.Unix(0, at)).Seconds()
}

func (st *stream) storeWindow(pos int, body string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ws := st.windows
	i := sort.Search(len(ws), func(i int) bool { return ws[i].Position >= pos })
	if i < len(ws) && ws[i].Position == pos {
		ws[i].Body = body
		return
	}
	ws = append(ws, publishedWindow{})
	copy(ws[i+1:], ws[i:])
	ws[i] = publishedWindow{Position: pos, Body: body}
	if limit := st.cfg.History; limit > 0 && len(ws) > limit {
		n := copy(ws, ws[len(ws)-limit:])
		ws = ws[:n]
		st.winTrunc = true
	}
	st.windows = ws
}

// windowsFrom returns the retained windows with Position >= from, plus
// whether older windows were evicted past the history limit.
func (st *stream) windowsFrom(from int) ([]publishedWindow, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	i := sort.Search(len(st.windows), func(i int) bool { return st.windows[i].Position >= from })
	out := make([]publishedWindow, len(st.windows)-i)
	copy(out, st.windows[i:])
	return out, st.winTrunc
}

// closeDurable closes the stream's WAL and token journal exactly once.
// Close drops any unsynced buffered frames — exactly what a crash would —
// so the abort path can use it as a crash simulation.
func (st *stream) closeDurable() {
	st.closeDur.Do(func() {
		if st.wal != nil {
			if err := st.wal.Close(); err != nil {
				st.srv.log.Warn("wal close failed", "stream", st.id, "error", err.Error())
			}
		}
		if st.tokens != nil {
			if err := st.tokens.Close(); err != nil {
				st.srv.log.Warn("token journal close failed", "stream", st.id, "error", err.Error())
			}
		}
		if st.store != nil {
			// Releases the open delta-chain segment descriptor; every
			// appended frame is already fsynced, so nothing is lost.
			if err := st.store.Close(); err != nil {
				st.srv.log.Warn("checkpoint store close failed", "stream", st.id, "error", err.Error())
			}
		}
	})
}

// releaseLease releases the stream's checkpoint lease exactly once.
func (st *stream) releaseLease() {
	st.release.Do(func() {
		if st.lease != nil {
			if err := st.lease.Release(); err != nil {
				st.srv.log.Warn("lease release failed", "stream", st.id, "error", err.Error())
			}
		}
	})
}

// status snapshots the stream for the control plane.
func (st *stream) status() StreamStatus {
	// WAL segment count takes the wal's own lock; read it before st.mu.
	var segs int
	if st.wal != nil {
		segs = st.wal.SegmentCount()
	}
	ckptAge := st.checkpointAge()
	st.mu.Lock()
	defer st.mu.Unlock()
	// A stream parked at adoption because its scheme no longer parses has
	// no pipeline config; fall back to the configured name.
	scheme := st.cfg.Scheme
	if st.pipeCfg.Scheme != nil {
		scheme = st.pipeCfg.Scheme.Name()
	}
	return StreamStatus{
		ID:                  st.id,
		State:               st.state,
		LastError:           st.lastErr,
		RecordsAccepted:     st.seqSnapshot(),
		RecordsConsumed:     st.consumed,
		BadRecords:          st.badSeen,
		QueueLen:            len(st.queue),
		QueueCap:            cap(st.queue),
		WindowsRetained:     len(st.windows),
		Restarts:            st.restarts,
		ConsecutiveFailures: st.consecFails,
		CheckpointRecords:   st.lastCkpt,
		Workers:             st.cfg.Workers,
		Scheme:              scheme,
		AcceptedLines:       st.lines,
		Durable:             st.wal != nil,
		ReplayLost:          st.replayLost,
		WALSegments:         segs,
		LastCheckpointAge:   ckptAge,
	}
}

// seqSnapshot reads the accepted-records counter without taking ingestMu
// (st.mu is already held by status); status is diagnostic, so a slightly
// stale value is fine.
func (st *stream) seqSnapshot() uint64 { return st.seq }

// finalState reports the state and last error after a supervision session
// has ended (the drain report's source of truth).
func (st *stream) finalState() (state, lastErr string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.state, st.lastErr
}
