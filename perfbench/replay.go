package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/mining/moment"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/wal"
)

// replayInput is one stream of a measured run, as the serial layer replay
// drives it again: the records (text lines for the service workloads, a
// generator for the library one), the pipeline configuration, and which
// durable layers the live run used.
type replayInput struct {
	cfg       pipeline.Config
	n         int // records
	lines     *corpus
	newGen    func() *data.Generator
	batch     int // lines per ingest request: one WAL group sync each
	durable   bool
	fullEvery int
}

// replayStats is what the serial replay measured, summed over streams.
type replayStats struct {
	lines, walRecords, records                int64
	parse, walAppend, push, snapshot, publish time.Duration
	biasOpt, perturb, saveFull, appendDelta   time.Duration
	sync                                      sample // ms per WAL group sync
	walBytes, ckptBytes                       int64
	windows, itemsets, classes                int
	biasReuses, cacheEntries, fulls, deltas   int
	latest                                    float64 // ms, median LatestDetail
	digest                                    uint64
}

// replay drives every stream of base again, serially, through the
// layers' public functions — data.TransactionReader.Next, wal.Log
// Append/Sync, moment.Miner Push/FrequentInto, core.Publisher.Publish (split
// by Timing), checkpoint.Store Save/AppendDelta/LatestDetail — timing each
// call. Its output digest must equal the measured run's.
func replay(e *env, base *result) (*replayStats, error) {
	rs := &replayStats{}
	var latest sample
	for i, in := range base.inputs {
		dir, err := freshDir(e.work, fmt.Sprintf("replay-%d", i))
		if err != nil {
			return nil, err
		}
		if err := rs.stream(dir, in, &latest); err != nil {
			return nil, err
		}
	}
	if latest.n() > 0 {
		rs.latest = latest.median()
	}
	return rs, nil
}

func (rs *replayStats) stream(dir string, in replayInput, latest *sample) error {
	cfg := in.cfg
	var lg *wal.Log
	if in.durable {
		var err error
		if lg, _, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{}); err != nil {
			return err
		}
		defer lg.Close()
	}
	var store *checkpoint.Store
	if in.fullEvery > 0 {
		var err error
		if store, err = checkpoint.NewStore(filepath.Join(dir, "ckpt"), 0); err != nil {
			return err
		}
		defer store.Close()
	}
	miner := moment.New(cfg.WindowSize, cfg.Params.MinSupport)
	pub, err := core.NewPublisher(cfg.Params, cfg.Scheme, rng.New(cfg.Seed))
	if err != nil {
		return err
	}
	pub.SetWorkers(1)
	if store != nil && in.fullEvery > 1 {
		pub.SetDeltaTracking(true)
	}

	var tr *data.TransactionReader
	var gen *data.Generator
	if in.lines != nil {
		tr = data.NewTransactionReader(bytes.NewReader(in.lines.slice(0, in.n)), nil)
	} else {
		gen = in.newGen()
	}
	positions := publishPositions(cfg.WindowSize, cfg.PublishEvery, in.n)
	hashes := make(map[int]uint64, len(positions))
	next := 0
	var (
		recycled       *mining.Result
		appended       []itemset.Itemset
		published, seq uint64
		lastCkpt       uint64
		batch          = make([]itemset.Itemset, 0, in.batch)
		classes        []fec.Class
		members        []itemset.Itemset
	)
	for pos := 0; pos < in.n; {
		// One ingest request's worth: parse, WAL append, group sync.
		batch = batch[:0]
		t0 := time.Now()
		for len(batch) < in.batch && pos+len(batch) < in.n {
			var rec itemset.Itemset
			if tr != nil {
				var err error
				if rec, err = tr.Next(); err != nil {
					return fmt.Errorf("replay parse at line %d: %w", pos+len(batch)+1, err)
				}
			} else {
				rec = gen.Next()
			}
			batch = append(batch, rec)
		}
		if tr != nil {
			rs.parse += time.Since(t0)
			rs.lines += int64(len(batch))
		}
		if lg != nil {
			t0 = time.Now()
			for i, rec := range batch {
				line := uint64(pos + i + 1)
				if err := lg.Append(wal.Record{Line: line, Seq: line, Rec: rec}); err != nil {
					return err
				}
			}
			rs.walAppend += time.Since(t0)
			rs.walRecords += int64(len(batch))
			t0 = time.Now()
			if err := lg.Sync(); err != nil {
				return err
			}
			rs.sync.add(ms(time.Since(t0)))
		}
		for _, rec := range batch {
			pos++
			t0 = time.Now()
			miner.Push(rec)
			rs.push += time.Since(t0)
			if store != nil && in.fullEvery > 1 {
				if w := cfg.WindowSize; len(appended) >= 2*w {
					appended = appended[:copy(appended, appended[len(appended)-w:])]
				}
				appended = append(appended, rec)
			}
			if next >= len(positions) || pos != positions[next] {
				continue
			}
			next++
			published++
			t0 = time.Now()
			res := miner.FrequentInto(recycled)
			rs.snapshot += time.Since(t0)
			classes, members = fec.PartitionInto(res, classes, members)
			rs.itemsets += res.Len()
			rs.classes += len(classes)
			opt0, pert0 := pub.Timing()
			reuse0 := pub.BiasReuses()
			t0 = time.Now()
			out, err := pub.Publish(res, cfg.WindowSize)
			rs.publish += time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay publish at %d: %w", pos, err)
			}
			opt1, pert1 := pub.Timing()
			rs.biasOpt += opt1 - opt0
			rs.perturb += pert1 - pert0
			rs.biasReuses += pub.BiasReuses() - reuse0
			rs.cacheEntries += pub.CacheLen()
			hashes[pos] = windowHash(pos, out)
			recycled = res
			if store == nil {
				continue
			}
			seq++
			if in.fullEvery <= 1 || (seq-1)%uint64(in.fullEvery) == 0 {
				snap := &checkpoint.Snapshot{
					Meta: cfg.Fingerprint(), Records: uint64(pos), Published: published,
					Window: miner.Window(), Publisher: *pub.Snapshot(),
				}
				t0 = time.Now()
				err = store.Save(snap)
				rs.saveFull += time.Since(t0)
				rs.fulls++
			} else {
				app := appended
				if len(app) > cfg.WindowSize {
					app = app[len(app)-cfg.WindowSize:]
				}
				d := &checkpoint.Delta{
					ParentRecords: lastCkpt, Records: uint64(pos), Published: published,
					Appended: append([]itemset.Itemset(nil), app...), Publisher: *pub.SnapshotDelta(),
				}
				t0 = time.Now()
				err = store.AppendDelta(d)
				rs.appendDelta += time.Since(t0)
				rs.deltas++
			}
			if err != nil {
				return fmt.Errorf("replay checkpoint at %d: %w", pos, err)
			}
			rs.ckptBytes += int64(store.LastSaveBytes())
			lastCkpt = uint64(pos)
			appended = appended[:0]
		}
	}
	if tr != nil {
		if _, err := tr.Next(); err != io.EOF {
			return fmt.Errorf("replay: input has more than %d records", in.n)
		}
	}
	rs.records += int64(in.n)
	rs.windows += len(positions)
	rs.digest = rs.digest*1099511628211 ^ digest(positions, hashes)
	if lg != nil {
		segs, err := filepath.Glob(filepath.Join(dir, "wal", wal.SegmentGlob))
		if err != nil {
			return err
		}
		for _, p := range segs {
			if fi, err := os.Stat(p); err == nil {
				rs.walBytes += fi.Size()
			}
		}
	}
	if store != nil {
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, _, err := store.LatestDetail(); err != nil {
				return err
			}
			latest.add(ms(time.Since(t0)))
		}
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
