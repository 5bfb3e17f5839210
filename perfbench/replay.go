package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/wal"
	"repro/internal/workload"
)

// span is one timed call. Spans of one operation share op; the root
// span has parent -1.
type span struct {
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.op, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// replayStats is what one replay measured.
type replayStats struct {
	tr     *tracer
	root   map[string][]time.Duration // root span per class
	failed []string
	// Program-reported timings of proql.Result.Stats, per class.
	unfold, plan, eval map[string][]time.Duration
	allocs             map[string][]uint64 // per query class, and "write"
	walBytes           []int64             // log growth of commits without a checkpoint
	// Deterministic counts: they must repeat exactly for a seed.
	counts   map[string]int64
	bindings map[string][]int
	// Plan-cache counters over the whole replay.
	cacheHits, cacheLookups int
	finalRows               int
	finalEpoch              uint64
}

func retainEpochs(flagVal int64) uint64 {
	if flagVal < 0 {
		return relstore.RetainAll
	}
	return uint64(flagVal)
}

func walOptions(sp spec) wal.Options {
	return wal.Options{SyncEvery: 1, CheckpointEvery: 256, Retain: retainEpochs(sp.retain)}
}

// replayOps orders a plan's operations the way the replay runs them:
// warm-up, the open phase, then the closed-loop clients interleaved.
func replayOps(p *plan) []op {
	ops := append(append([]op{}, p.warm...), p.open...)
	for i := 0; ; i++ {
		more := false
		for _, s := range p.closed {
			if i < len(s) {
				ops = append(ops, s[i])
				more = true
			}
		}
		if !more {
			return ops
		}
	}
}

// replay runs the plan's operations in process over the same durable
// setting proqld serves, calling the public steps of core.System.Run
// and DeleteLocal one by one so each layer is timed apart. With
// traced false only the root of every operation is timed.
func replay(sp spec, p *plan, dir string, traced bool) (*replayStats, error) {
	rs := &replayStats{
		tr:       &tracer{on: traced},
		root:     map[string][]time.Duration{},
		unfold:   map[string][]time.Duration{},
		plan:     map[string][]time.Duration{},
		eval:     map[string][]time.Duration{},
		allocs:   map[string][]uint64{},
		counts:   map[string]int64{},
		bindings: map[string][]int{},
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	set, st, err := workload.OpenDurable(sp.config(), dir, walOptions(sp))
	if err != nil {
		return nil, fmt.Errorf("open replay setting: %w", err)
	}
	sys := core.WrapDurable(set.Sys, st)
	setupEpoch := sys.Epoch()
	rs.tr.t0 = time.Now()
	for i, o := range replayOps(p) {
		rs.tr.op = i
		if err := rs.run(sys, &o, setupEpoch); err != nil {
			rs.failed = append(rs.failed, fmt.Sprintf("op %d (%s): %v", i, o.class, err))
		}
	}
	pc := sys.Engine().PlanCacheStats()
	rs.cacheHits, rs.cacheLookups = pc.Hits, pc.Hits+pc.Misses
	db := sys.Exchange().DB
	rs.finalRows, rs.finalEpoch = db.TotalRows(), db.Epoch()
	rs.counts["relstore.retained_versions"] = db.DeadVersions()

	// Crash: leave the store open (every commit is already fsynced)
	// and count what a restart from this directory replays.
	if traced {
		copyDir := dir + "-crash"
		if err := copyTree(dir, copyDir); err != nil {
			return nil, err
		}
		re, err := wal.Open(copyDir, walOptions(sp))
		if err != nil {
			return nil, fmt.Errorf("reopen crashed replay: %w", err)
		}
		rs.counts["wal.replayed_batches"] = int64(re.Replayed())
		re.Close()
		os.RemoveAll(copyDir)
	}
	st.Close()
	return rs, nil
}

func (rs *replayStats) run(sys *core.System, o *op, setupEpoch uint64) error {
	if isWrite(o.class) {
		return rs.write(sys, o)
	}
	return rs.read(sys, o, setupEpoch)
}

func (rs *replayStats) read(sys *core.System, o *op, setupEpoch uint64) error {
	tr := rs.tr
	eng := sys.Engine()
	db := sys.Exchange().DB
	text, vars := diffQuery, []string{"x"}
	var asOf, from, to uint64
	switch o.class {
	case cLookup:
		text = lookupQuery(o.key)
	case cJoin:
		text, vars = joinQuery(o.key), []string{"x", "y"}
	case cAnnotate:
		text = annotateQuery
	case cAsof:
		text = lookupQuery(o.key)
		asOf = historyEpoch(o.frac, setupEpoch, db.Epoch())
	case cDiff:
		from, to = historyEpoch(o.frac, setupEpoch, db.Epoch()), db.Epoch()
	}

	start := time.Now()
	root := tr.begin(o.class, -1)
	s := tr.begin("proql.parse", root)
	q, err := proql.Parse(text)
	tr.end(s)
	if err != nil {
		return err
	}
	if tr.on {
		s = tr.begin("relstore.snapshot_at", root)
		pin := asOf
		if o.class == cDiff {
			pin = from
		}
		if pin == 0 {
			pin = db.Epoch()
		}
		snap, err := db.SnapshotAt(pin)
		if err == nil {
			snap.Close()
		}
		tr.end(s)
		if err != nil {
			return err
		}
	}
	var a0 uint64
	if tr.on {
		a0 = allocs()
	}
	if o.class == cDiff {
		s = tr.begin("proql.diff", root)
		d, err := eng.Diff(context.Background(), q, from, to, proql.Options{Backend: "auto"})
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("proql.assemble", root)
		n := 0
		for _, b := range d.Appeared {
			n += len(proql.BindingKey(b))
		}
		for _, b := range d.Disappeared {
			n += len(proql.BindingKey(b))
		}
		tr.end(s)
		tr.end(root)
		rs.root[o.class] = append(rs.root[o.class], time.Since(start))
		if tr.on {
			rs.allocs[o.class] = append(rs.allocs[o.class], allocs()-a0)
			rs.bindings[o.class] = append(rs.bindings[o.class], len(d.Appeared)+len(d.Disappeared))
			for _, st := range []proql.Stats{d.FromStats, d.ToStats} {
				rs.unfold[o.class] = append(rs.unfold[o.class], st.UnfoldTime)
				rs.plan[o.class] = append(rs.plan[o.class], st.PlanTime)
				rs.eval[o.class] = append(rs.eval[o.class], st.EvalTime)
			}
		}
		return nil
	}
	s = tr.begin("proql.exec", root)
	res, err := eng.Exec(context.Background(), q, proql.Options{Backend: "auto", AsOfEpoch: asOf})
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("proql.assemble", root)
	for _, v := range vars {
		res.SortedRefs(v)
	}
	tr.end(s)
	tr.end(root)
	rs.root[o.class] = append(rs.root[o.class], time.Since(start))
	if tr.on {
		rs.allocs[o.class] = append(rs.allocs[o.class], allocs()-a0)
		rs.bindings[o.class] = append(rs.bindings[o.class], len(res.Bindings))
		rs.unfold[o.class] = append(rs.unfold[o.class], res.Stats.UnfoldTime)
		rs.plan[o.class] = append(rs.plan[o.class], res.Stats.PlanTime)
		rs.eval[o.class] = append(rs.eval[o.class], res.Stats.EvalTime)
	}
	return nil
}

// write mirrors core.System.Run (after InsertLocal) and DeleteLocal
// step by step.
func (rs *replayStats) write(sys *core.System, o *op) error {
	tr := rs.tr
	ex, eng, st := sys.Exchange(), sys.Engine(), sys.Store()
	db := ex.DB
	var rows []model.Tuple
	var keys [][]model.Datum
	for i, k := range o.b.keys {
		if o.class == cInsert {
			row := make(model.Tuple, len(o.b.rows[i]))
			for j, v := range o.b.rows[i] {
				row[j] = v
			}
			rows = append(rows, row)
		} else {
			keys = append(keys, []model.Datum{k})
		}
	}
	var logBefore int64
	var a0 uint64
	if tr.on {
		logBefore = logBytes(st.Dir())
		a0 = allocs()
	}
	start := time.Now()
	root := tr.begin(o.class, -1)
	if o.class == cInsert {
		s := tr.begin("core.insert_local", root)
		err := sys.InsertLocal(o.b.rel, rows...)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	s := tr.begin("relstore.begin_batch", root)
	db.BeginBatch()
	tr.end(s)
	var ins *exchange.InsertionReport
	var del *exchange.MaintenanceReport
	var err error
	if o.class == cInsert {
		s = tr.begin("exchange.run_delta", root)
		ins, err = ex.RunDelta()
		tr.end(s)
		if err == nil {
			s = tr.begin("asr.apply", root)
			err = sys.ASRIndex().ApplyInsertions(ins)
			tr.end(s)
		}
	} else {
		s = tr.begin("exchange.delete", root)
		del, err = ex.DeleteLocal(o.b.rel, keys...)
		tr.end(s)
		if err == nil {
			s = tr.begin("asr.apply", root)
			err = sys.ASRIndex().ApplyDeletions(del)
			tr.end(s)
		}
	}
	s = tr.begin("wal.commit", root)
	db.EndBatch()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("provgraph.patch", root)
	switch {
	case ins != nil && ins.Full:
		eng.InvalidateGraph()
	case ins != nil:
		eng.MaintainGraphInsert(ins)
	default:
		eng.MaintainGraph(del)
	}
	tr.end(s)
	s = tr.begin("wal.checkpoint", root)
	did, err := st.MaybeCheckpoint()
	tr.end(s)
	tr.end(root)
	rs.root[o.class] = append(rs.root[o.class], time.Since(start))
	if err != nil {
		return err
	}
	if did {
		rs.counts["wal.checkpoints"]++
	}
	if ins != nil {
		rs.counts["exchange.delta_derivations"] += int64(ins.Derivations)
	} else {
		rs.counts["exchange.tuples_visited"] += int64(del.TuplesVisited)
		rs.counts["exchange.derivations_visited"] += int64(del.DerivationsVisited)
	}
	if tr.on {
		rs.allocs["write"] = append(rs.allocs["write"], allocs()-a0)
		if !did {
			rs.walBytes = append(rs.walBytes, logBytes(st.Dir())-logBefore)
		}
	}
	return nil
}

// logBytes sums the write-ahead log files of a store directory.
func logBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

// layerTimes returns, per layer name, the durations of its spans, and
// per class the total root time and the root time no child covers.
func (t *tracer) layerTimes() (layers map[string][]time.Duration, rootTotal, rootSelf map[string]time.Duration) {
	layers = map[string][]time.Duration{}
	rootTotal = map[string]time.Duration{}
	rootSelf = map[string]time.Duration{}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		if s.Parent < 0 {
			rootTotal[s.Name] += d
			rootSelf[s.Name] += d - children[i]
			continue
		}
		layers[s.Name] = append(layers[s.Name], d)
	}
	return layers, rootTotal, rootSelf
}

// copyTree copies a flat store directory.
func copyTree(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// timeRecovery opens copies of a crashed store directory the two ways
// a restart does: the storage layer alone (wal.Open) and the whole
// durable exchange system (exchange.OpenDurable, which adds
// WarmAttach). It returns the median of n opens of each.
func timeRecovery(sp spec, crashed, tmp string, n int) (walOpen, exOpen time.Duration, replayed int, err error) {
	var walTimes, exTimes []time.Duration
	for i := 0; i < n; i++ {
		if err := copyTree(crashed, tmp); err != nil {
			return 0, 0, 0, err
		}
		begin := time.Now()
		st, err := wal.Open(tmp, walOptions(sp))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("wal.Open: %w", err)
		}
		walTimes = append(walTimes, time.Since(begin))
		replayed = st.Replayed()
		st.Close()

		if err := copyTree(crashed, tmp); err != nil {
			return 0, 0, 0, err
		}
		set, err := workload.BuildSchema(sp.config())
		if err != nil {
			return 0, 0, 0, err
		}
		begin = time.Now()
		_, st, err = exchange.OpenDurable(set.Schema, tmp, walOptions(sp), exchange.Options{})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("exchange.OpenDurable: %w", err)
		}
		exTimes = append(exTimes, time.Since(begin))
		st.Close()
	}
	os.RemoveAll(tmp)
	return median(walTimes), median(exTimes), replayed, nil
}
