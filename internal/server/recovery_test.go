package server

// The recovery differential suite: kill the daemon (simulated via Abort —
// buffered WAL frames drop exactly as a real death would drop them) at
// every crash boundary of the two durable write protocols — checkpoint
// save (before-write, before-rename, torn-write) and WAL group sync
// (before-sync, torn-sync) — plus clean kills between requests and a torn
// WAL tail, then Recover in a fresh server over the same data dir and pin:
//
//   - union of windows published across both incarnations == the
//     uninterrupted reference run, byte for byte (consistent
//     republication, zero accepted-record loss, no divergent duplicates);
//   - every line the client got a 2xx for survives (the client re-sends
//     from its acked offset and the ?offset= dedup absorbs the overlap).
//
// CI runs these race-enabled.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// durClient drives ingest the way a durability-aware client must: tracking
// its acked line count and re-sending from it with ?offset= after any
// failure, so retries are idempotent and a lost response cannot double- or
// under-ingest.
type durClient struct {
	t     *testing.T
	c     *tClient
	id    string
	lines []string
	acked int
}

func newDurClient(t *testing.T, c *tClient, id, input string) *durClient {
	return &durClient{t: t, c: c, id: id,
		lines: strings.Split(strings.TrimRight(input, "\n"), "\n")}
}

func (d *durClient) rebase(c *tClient) { d.c = c }

// feed sends the unacked tail in small chunks. It returns false at the
// first durability failure (HTTP 500 — the injected crash landed inside
// this request's group sync) or when stop() reports the crash fired
// elsewhere (checkpoint-save injection); true once everything is acked.
func (d *durClient) feed(stop func() bool) bool {
	d.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for d.acked < len(d.lines) {
		if stop != nil && stop() {
			return false
		}
		end := d.acked + 37
		if end > len(d.lines) {
			end = len(d.lines)
		}
		chunk := strings.Join(d.lines[d.acked:end], "\n") + "\n"
		resp, body := d.c.do("POST",
			fmt.Sprintf("/v1/streams/%s/records?offset=%d", d.id, d.acked),
			strings.NewReader(chunk))
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			d.t.Fatalf("ingest %s: bad response %q", d.id, body)
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			d.acked += ir.Accepted
			// The stream may hold more of our lines than we ever saw
			// acknowledged (recovery adopted a torn group's synced frames);
			// the response total is the authoritative resume offset.
			if n := int(ir.AcceptedLines); n > d.acked && n <= len(d.lines) {
				d.acked = n
			}
			if resp.StatusCode != http.StatusOK {
				time.Sleep(2 * time.Millisecond)
			}
		case http.StatusInternalServerError:
			// The whole group was unwound before acceptance; nothing acked.
			if ir.Accepted != 0 {
				d.t.Fatalf("ingest %s: durability failure acked %d lines", d.id, ir.Accepted)
			}
			return false
		default:
			d.t.Fatalf("ingest %s: %d %s", d.id, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("ingest %s: stuck at line %d/%d", d.id, d.acked, len(d.lines))
		}
	}
	return true
}

// crashSpec is one kill boundary of the recovery matrix.
type crashSpec struct {
	name string
	// killAfter stops feeding once at least this many lines are acked (clean
	// kill between requests). 0: the injected hook decides the kill moment.
	killAfter int
	// ckptPoint/ckptSave install a checkpoint.Store crash at that protocol
	// point of the Nth save.
	ckptPoint string
	ckptSave  int
	// walPoint/walSync install a wal.Log crash at that point of the Nth
	// group sync.
	walPoint string
	walSync  int
	// tearTail appends garbage to the newest WAL segment after the kill —
	// the torn final frame a real power cut leaves.
	tearTail bool
	// badLines splices malformed lines into the input (budget unlimited),
	// pinning that the WAL carries bad-line positions through recovery.
	badLines bool
}

func TestRecoverKillAtEveryBoundary(t *testing.T) {
	specs := []crashSpec{
		{name: "kill-early", killAfter: 150},
		{name: "kill-late", killAfter: 450},
		{name: "kill-bad-lines", killAfter: 300, badLines: true},
		{name: "ckpt-before-write", ckptPoint: checkpoint.CrashBeforeWrite, ckptSave: 2},
		{name: "ckpt-before-rename", ckptPoint: checkpoint.CrashBeforeRename, ckptSave: 2},
		{name: "ckpt-torn-write", ckptPoint: checkpoint.CrashTornWrite, ckptSave: 3},
		{name: "wal-before-sync", walPoint: wal.CrashBeforeSync, walSync: 5},
		{name: "wal-torn-sync", walPoint: wal.CrashTornSync, walSync: 5},
		{name: "torn-tail", killAfter: 300, tearTail: true},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			runCrashSpec(t, sp)
		})
	}
}

func runCrashSpec(t *testing.T, sp crashSpec) {
	root := t.TempDir()
	cfg := testConfig("s", 42)
	cfg.CheckpointEvery = 1
	input := genInput(t, 7, 600)
	if sp.badLines {
		cfg.MaxBadRecords = -1
		input = withBadLines(input, 40)
	}
	ref := referenceWindows(t, cfg, input)
	if len(ref) == 0 {
		t.Fatal("reference run published nothing")
	}

	var fired atomic.Bool
	opts1 := Options{DataDir: root, WALSegmentBytes: 4 << 10}
	if sp.ckptPoint != "" {
		plan := &faultinject.CrashPlan{Point: sp.ckptPoint, OnSave: sp.ckptSave}
		hook := plan.Hook()
		opts1.hookStore = func(_ string, store *checkpoint.Store) {
			store.CrashHook = func(point string, save int) bool {
				if hook(point, save) {
					fired.Store(true)
					return true
				}
				return false
			}
		}
	}
	if sp.walPoint != "" {
		opts1.hookWAL = func(_ string, lg *wal.Log) {
			lg.CrashHook = func(point string, sync int) bool {
				if point == sp.walPoint && sync == sp.walSync {
					fired.Store(true)
					return true
				}
				return false
			}
		}
	}

	srv1, c1 := newTestServer(t, opts1)
	c1.create(cfg)
	dc := newDurClient(t, c1, "s", input)
	stop := func() bool {
		if sp.killAfter > 0 {
			return dc.acked >= sp.killAfter
		}
		return fired.Load()
	}
	if done := dc.feed(stop); done {
		t.Fatalf("crash never fired; stream fully ingested (%d lines)", dc.acked)
	}
	if sp.ckptPoint != "" || sp.walPoint != "" {
		if !fired.Load() {
			t.Fatal("injected crash hook never fired")
		}
	}
	ackedAtKill := dc.acked
	srv1.Abort() // the kill: unsynced WAL buffers drop, nothing acked is lost
	win1 := c1.windows("s")

	if sp.tearTail {
		segs, err := filepath.Glob(filepath.Join(root, "streams", "s", wal.SegmentGlob))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no wal segments to tear: %v (%d)", err, len(segs))
		}
		sort.Strings(segs)
		if err := faultinject.AppendBytes(segs[len(segs)-1],
			[]byte("\xde\xad\xbe\xef torn final frame")); err != nil {
			t.Fatal(err)
		}
	}

	srv2, c2 := newTestServer(t, Options{DataDir: root, WALSegmentBytes: 4 << 10})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 || rep.Parked != 0 {
		t.Fatalf("recover adopted %d / parked %d, want 1/0", rep.Adopted, rep.Parked)
	}
	_, st := c2.status("s")
	if !st.Durable {
		t.Fatal("adopted stream is not durable")
	}
	if st.AcceptedLines < uint64(ackedAtKill) {
		t.Fatalf("recovery lost accepted lines: acked %d, recovered %d",
			ackedAtKill, st.AcceptedLines)
	}

	dc.rebase(c2)
	if done := dc.feed(nil); !done {
		t.Fatal("post-recovery feed crashed")
	}
	c2.closeStream("s")
	c2.waitState("s", StateDone, 60*time.Second)
	win2 := c2.windows("s")
	_, final := c2.status("s")
	if final.AcceptedLines != uint64(len(dc.lines)) {
		t.Fatalf("stream accepted %d lines total, client sent %d",
			final.AcceptedLines, len(dc.lines))
	}

	// The union across incarnations must be the reference run exactly:
	// every reference window present, overlapping republications
	// byte-identical, nothing extra.
	union := map[int]string{}
	for pos, body := range win1 {
		union[pos] = body
	}
	for pos, body := range win2 {
		if prev, ok := union[pos]; ok && prev != body {
			t.Errorf("window at position %d republished with different bytes", pos)
		}
		union[pos] = body
	}
	if len(union) != len(ref) {
		t.Errorf("union has %d windows, reference has %d", len(union), len(ref))
	}
	for pos, want := range ref {
		if union[pos] != want {
			t.Errorf("window at position %d differs from the reference run", pos)
		}
	}
	for pos := range union {
		if _, ok := ref[pos]; !ok {
			t.Errorf("union has spurious window at position %d", pos)
		}
	}
}

// TestRecoverManifestStates pins that durable lifecycle states survive the
// kill: a stream quarantined before the crash comes back quarantined with
// its LastError, next to a healthy neighbor that comes back running.
func TestRecoverManifestStates(t *testing.T) {
	root := t.TempDir()
	sink := func(id string, emit func(pipeline.Window) error) func(pipeline.Window) error {
		if id != "q" {
			return emit
		}
		return func(pipeline.Window) error {
			return fmt.Errorf("injected permanent sink failure")
		}
	}
	srv1, c1 := newTestServer(t, Options{
		DataDir: root, BreakerFailures: 2, RestartBackoff: time.Millisecond,
		WrapSink: sink,
	})
	c1.create(testConfig("ok", 1))
	c1.create(testConfig("q", 2))
	c1.ingestAll("ok", genInput(t, 3, 150))
	c1.ingestAll("q", genInput(t, 4, 150))
	c1.waitState("q", StateQuarantined, 30*time.Second)
	srv1.Abort()

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 || rep.Parked != 1 {
		t.Fatalf("recover adopted %d / parked %d, want 1/1", rep.Adopted, rep.Parked)
	}
	_, okSt := c2.status("ok")
	if okSt.State != StateRunning {
		t.Errorf("ok stream adopted as %q, want running", okSt.State)
	}
	_, qSt := c2.status("q")
	if qSt.State != StateQuarantined {
		t.Errorf("q stream adopted as %q, want quarantined", qSt.State)
	}
	if !strings.Contains(qSt.LastError, "injected permanent sink failure") {
		t.Errorf("quarantined stream lost its last error across the kill: %q", qSt.LastError)
	}
	// A resumed quarantine (the fault is gone on srv2) must drain cleanly.
	resp, body := c2.do("POST", "/v1/streams/q/resume", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume q: %d %s", resp.StatusCode, body)
	}
	c2.closeStream("q")
	c2.waitState("q", StateDone, 60*time.Second)
}

// TestRecoverRefusesSequentialDrawOrder: a manifest entry an older build
// wrote under workers=1 carries "Chunked": false — the retired sequential
// draw order. Resuming it in the chunked order would redraw windows already
// published, so adoption quarantines that stream with a reason naming the
// draw order, refuses to restart it, and keeps the marker in the rewritten
// manifest. A neighbour written under workers >= 2 ("Chunked": true, the
// order every worker count now uses) is adopted as usual.
func TestRecoverRefusesSequentialDrawOrder(t *testing.T) {
	root := t.TempDir()
	srv1, c1 := newTestServer(t, Options{DataDir: root})
	seqCfg := testConfig("seq", 1)
	seqCfg.Workers = 1
	c1.create(seqCfg)
	c1.create(testConfig("chunked", 2))
	c1.ingestAll("seq", genInput(t, 3, 150))
	c1.ingestAll("chunked", genInput(t, 4, 150))
	srv1.Abort()

	path := filepath.Join(root, "manifest.json")
	fingerprints := func() map[string]map[string]any {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var mf struct {
			Streams map[string]struct {
				Fingerprint map[string]any `json:"fingerprint"`
			} `json:"streams"`
		}
		if err := json.Unmarshal(raw, &mf); err != nil {
			t.Fatal(err)
		}
		out := map[string]map[string]any{}
		for id, e := range mf.Streams {
			out[id] = e.Fingerprint
		}
		return out
	}
	for id, fp := range fingerprints() {
		if fp["Chunked"] != true {
			t.Fatalf("stream %s manifest fingerprint Chunked = %v, want true at every worker count", id, fp["Chunked"])
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var mf map[string]any
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	mf["streams"].(map[string]any)["seq"].(map[string]any)["fingerprint"].(map[string]any)["Chunked"] = false
	legacy, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 || rep.Parked != 1 {
		t.Fatalf("recover adopted %d / parked %d, want 1/1", rep.Adopted, rep.Parked)
	}
	if _, st := c2.status("chunked"); st.State != StateRunning {
		t.Errorf("chunked stream adopted as %q, want running", st.State)
	}
	_, st := c2.status("seq")
	if st.State != StateQuarantined {
		t.Fatalf("sequential-order stream adopted as %q, want quarantined", st.State)
	}
	if !strings.Contains(st.LastError, "retired sequential draw order") {
		t.Errorf("quarantine reason %q does not name the retired sequential draw order", st.LastError)
	}
	if resp, body := c2.do("POST", "/v1/streams/seq/resume", nil); resp.StatusCode == http.StatusOK {
		t.Errorf("sequential-order stream restarted: %s", body)
	}
	if fp := fingerprints()["seq"]; fp["Chunked"] != false {
		t.Errorf("rewritten manifest lost the sequential-order marker: Chunked = %v", fp["Chunked"])
	}
}

// TestRecoverOrphanSweep pins the GC ordering contract: directories the
// manifest does not claim are swept at boot, and an unreadable manifest
// aborts recovery without sweeping anything.
func TestRecoverOrphanSweep(t *testing.T) {
	root := t.TempDir()
	srv1, c1 := newTestServer(t, Options{DataDir: root})
	c1.create(testConfig("keep", 1))
	c1.ingestAll("keep", genInput(t, 2, 120))
	srv1.Abort()

	ghost := filepath.Join(root, "streams", "ghost")
	if err := os.MkdirAll(ghost, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ghost, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != "ghost" {
		t.Fatalf("orphans = %v, want [ghost]", rep.Orphans)
	}
	if _, err := os.Stat(ghost); !os.IsNotExist(err) {
		t.Error("orphan directory survived the sweep")
	}
	if rep.Adopted != 1 {
		t.Fatalf("adopted %d, want 1", rep.Adopted)
	}
	srv2.Abort()

	// Corrupt manifest: recovery must refuse and must not sweep.
	if err := os.WriteFile(filepath.Join(root, "manifest.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, _ := newTestServer(t, Options{DataDir: root})
	if _, err := srv3.Recover(); err == nil {
		t.Fatal("recover accepted a corrupt manifest")
	}
	if _, err := os.Stat(filepath.Join(root, "streams", "keep")); err != nil {
		t.Errorf("corrupt-manifest recovery touched stream directories: %v", err)
	}
}

// TestStreamGC pins durable-footprint reclamation: a drained (done) stream
// and a deleted stream both lose their manifest entry and directory, and a
// subsequent recovery adopts nothing.
func TestStreamGC(t *testing.T) {
	root := t.TempDir()
	srv, c := newTestServer(t, Options{DataDir: root})

	c.create(testConfig("drained", 1))
	c.ingestAll("drained", genInput(t, 2, 150))
	c.closeStream("drained")
	c.waitState("drained", StateDone, 60*time.Second)
	waitGone(t, filepath.Join(root, "streams", "drained"))
	if _, ok := srv.manifestEntryFor("drained"); ok {
		t.Error("done stream still in the manifest")
	}

	c.create(testConfig("deleted", 2))
	c.ingestAll("deleted", genInput(t, 3, 150))
	resp, body := c.do("DELETE", "/v1/streams/deleted", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	waitGone(t, filepath.Join(root, "streams", "deleted"))
	if _, ok := srv.manifestEntryFor("deleted"); ok {
		t.Error("deleted stream still in the manifest")
	}
	srv.Abort()

	srv2, _ := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 0 || rep.Parked != 0 {
		t.Fatalf("gc'd streams were re-adopted: %+v", rep)
	}
}

func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s was never garbage-collected", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoverClosedStreamDrains pins the Closed manifest bit: a stream
// whose ingest was closed before the kill replays its WAL tail after
// recovery and drains to done with the reference windows — no client
// involvement at all.
func TestRecoverClosedStreamDrains(t *testing.T) {
	root := t.TempDir()
	cfg := testConfig("s", 9)
	cfg.CheckpointEvery = 1
	input := genInput(t, 11, 300)
	ref := referenceWindows(t, cfg, input)

	// Gate the first server's sink until it aborts: nothing publishes (or
	// checkpoints) before the kill, so the drain cannot finish — and GC the
	// stream — early. The Closed manifest bit must do all the draining after
	// recovery, fed purely by the WAL.
	var srv1 *Server
	srv1, c1 := newTestServer(t, Options{
		DataDir: root,
		WrapSink: func(_ string, _ func(pipeline.Window) error) func(pipeline.Window) error {
			return func(pipeline.Window) error {
				<-srv1.ctx.Done()
				return fmt.Errorf("sink gated until abort")
			}
		},
	})
	c1.create(cfg)
	c1.ingestAll("s", input)
	c1.closeStream("s")
	srv1.Abort()

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	if _, err := srv2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	c2.waitState("s", StateDone, 60*time.Second)
	got := c2.windows("s")
	if len(got) != len(ref) {
		t.Errorf("recovered drain published %d windows, reference has %d", len(got), len(ref))
	}
	for pos, body := range got {
		if ref[pos] != body {
			t.Errorf("window at position %d differs from the reference run", pos)
		}
	}
	if _, ok := got[300]; !ok {
		t.Errorf("recovered closed stream never published its final window (got %d)", len(got))
	}
}

// TestIngestOffsetDedup pins the retry protocol at the unit level:
// duplicate re-sends are absorbed, gaps are refused.
func TestIngestOffsetDedup(t *testing.T) {
	_, c := newTestServer(t, Options{DataDir: t.TempDir()})
	c.create(testConfig("s", 1))
	lines := strings.Split(strings.TrimRight(genInput(t, 2, 30), "\n"), "\n")
	send := func(from, to int, offset int) (int, ingestResponse) {
		t.Helper()
		chunk := strings.Join(lines[from:to], "\n") + "\n"
		resp, body := c.do("POST",
			fmt.Sprintf("/v1/streams/s/records?offset=%d", offset), strings.NewReader(chunk))
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatalf("bad response %q", body)
		}
		return resp.StatusCode, ir
	}
	if code, ir := send(0, 10, 0); code != http.StatusOK || ir.Accepted != 10 {
		t.Fatalf("initial send: %d accepted %d", code, ir.Accepted)
	}
	// Full duplicate (lost response): absorbed, nothing re-accepted.
	if code, ir := send(0, 10, 0); code != http.StatusOK || ir.Accepted != 0 {
		t.Fatalf("duplicate send: %d accepted %d, want 200/0", code, ir.Accepted)
	}
	// Partial overlap: only the new tail is accepted.
	if code, ir := send(5, 20, 5); code != http.StatusOK || ir.Accepted != 10 {
		t.Fatalf("overlap send: %d accepted %d, want 200/10", code, ir.Accepted)
	}
	// Gap: the client claims lines the stream never saw.
	if code, _ := send(25, 30, 25); code != http.StatusConflict {
		t.Fatalf("gap send: %d, want 409", code)
	}
	_, st := c.status("s")
	if st.AcceptedLines != 20 {
		t.Fatalf("accepted_lines = %d, want 20", st.AcceptedLines)
	}
	if !st.Durable {
		t.Fatal("stream with a data dir is not durable")
	}
}

// TestWALCorruptSealedSegment pins the bit-rot contract: recovery adopts
// the stream on the longest valid prefix (with the damage logged and the
// recoveries metric counting it), and the client's next offset-carrying
// request surfaces the loss as a 409 gap instead of silently re-numbering.
func TestWALCorruptSealedSegment(t *testing.T) {
	root := t.TempDir()
	reg := telemetry.NewRegistry()
	// Fail every checkpoint save on the first server: everything accepted
	// lives only in the WAL, so the sealed-segment damage has no checkpoint
	// to hide behind. (Failed saves fail the run; generous breaker settings
	// keep the stream restarting instead of quarantining.)
	srv1, c1 := newTestServer(t, Options{
		DataDir: root, WALSegmentBytes: 2 << 10,
		BreakerFailures: 1000, RestartBackoff: time.Millisecond,
		hookStore: func(_ string, store *checkpoint.Store) {
			store.CrashHook = func(point string, _ int) bool {
				return point == checkpoint.CrashBeforeWrite
			}
		},
	})
	cfg := testConfig("s", 5)
	c1.create(cfg)
	dc := newDurClient(t, c1, "s", genInput(t, 6, 200))
	if !dc.feed(nil) {
		t.Fatal("feed crashed")
	}
	srv1.Abort()

	segs, err := filepath.Glob(filepath.Join(root, "streams", "s", wal.SegmentGlob))
	if err != nil || len(segs) < 2 {
		des, _ := os.ReadDir(filepath.Join(root, "streams", "s"))
		var names []string
		for _, de := range des {
			info, _ := de.Info()
			names = append(names, fmt.Sprintf("%s(%d)", de.Name(), info.Size()))
		}
		t.Fatalf("want >= 2 segments to corrupt a sealed one, got %d (%v); dir: %v", len(segs), err, names)
	}
	sort.Strings(segs)
	// Flip a byte mid-frame in the first (sealed) segment.
	if err := faultinject.FlipByte(segs[0], 64); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Options{DataDir: root, Registry: reg})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 {
		_, dbg := c2.status("s")
		t.Fatalf("adopted %d, want 1 (corruption must degrade, not refuse): %+v / status %+v", rep.Adopted, rep, dbg)
	}
	_, st := c2.status("s")
	if st.AcceptedLines >= uint64(dc.acked) {
		t.Fatalf("corruption dropped nothing: recovered %d of %d acked", st.AcceptedLines, dc.acked)
	}
	// The client's resend sees the gap explicitly.
	resp, _ := c2.do("POST",
		fmt.Sprintf("/v1/streams/s/records?offset=%d", dc.acked),
		strings.NewReader("1 2 3\n"))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-corruption resend: %d, want 409 gap", resp.StatusCode)
	}
}
