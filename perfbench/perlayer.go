package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// maxUnattributed is the largest share of an operation's root span
// that may lie outside every layer span.
const maxUnattributed = 0.10

// perLayer replays the plan in process twice with tracing and once
// without, and derives the per-layer metrics. It also returns the
// checks that failed: final state against the HTTP run, repeatability
// of the engine's counts, and the unattributed-time rule.
func perLayer(sp spec, p *plan, e2e *e2eRun, work, spanFile string) ([]metric, []string, error) {
	var problems []string
	a, err := replay(sp, p, work+"/replay-a", true)
	if err != nil {
		return nil, nil, err
	}
	if err := a.tr.write(spanFile); err != nil {
		return nil, nil, err
	}
	b, err := replay(sp, p, work+"/replay-b", true)
	if err != nil {
		return nil, nil, err
	}
	plain, err := replay(sp, p, work+"/replay-plain", false)
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range []*replayStats{a, b, plain} {
		problems = append(problems, rs.failed...)
	}
	walOpen, exOpen, e2eReplayed, err := timeRecovery(sp, e2e.crashDir, work+"/reopen", 3)
	if err != nil {
		return nil, nil, err
	}

	if a.finalRows != e2e.final.InstanceSize || a.finalEpoch != e2e.final.Epoch {
		problems = append(problems, fmt.Sprintf("traced replay ended at %d rows / epoch %d, proqld at %d rows / epoch %d",
			a.finalRows, a.finalEpoch, e2e.final.InstanceSize, e2e.final.Epoch))
	}
	a.counts["proql.bindings_per_query.join"] = sum(a.bindings[cJoin])
	b.counts["proql.bindings_per_query.join"] = sum(b.bindings[cJoin])
	for _, k := range sortedKeys(a.counts, b.counts) {
		fmt.Printf("note count %s %d (second traced run %d)\n", k, a.counts[k], b.counts[k])
		if a.counts[k] != b.counts[k] {
			problems = append(problems, fmt.Sprintf("count %s differs across traced runs of one seed: %d vs %d", k, a.counts[k], b.counts[k]))
		}
	}

	layers, rootTotal, rootSelf := a.tr.layerTimes()
	share := map[string]float64{}
	worst := 0.0
	for c, total := range rootTotal {
		share[c] = float64(rootSelf[c]) / float64(total)
		worst = math.Max(worst, share[c])
		fmt.Printf("note trace.unattributed_share.%s %.4f\n", c, share[c])
		if share[c] > maxUnattributed {
			problems = append(problems, fmt.Sprintf("trace.unattributed_share.%s = %.3f > %.2f", c, share[c], maxUnattributed))
		}
	}

	// Class-specific figures for the classes this workload sends.
	for _, c := range allClasses {
		if len(a.root[c]) == 0 || isWrite(c) {
			continue
		}
		layer := "proql.exec_ms." + c
		if c == cDiff {
			layer = "proql.diff_ms"
		}
		fmt.Printf("note %s %.4f ms; unfold %.4f plan %.4f eval %.4f ms; allocs/query %.0f; bindings/query %.1f (n=%d)\n",
			layer, ms(median(classSpans(a, c, "proql.exec", "proql.diff"))),
			ms(median(a.unfold[c])), ms(median(a.plan[c])), ms(median(a.eval[c])),
			meanU(a.allocs[c]), meanI(a.bindings[c]), len(a.root[c]))
	}
	for _, c := range []string{cInsert, cDelete} {
		fmt.Printf("note provgraph.patch_ms.%s %.4f ms\n", c, ms(median(classSpans(a, c, "provgraph.patch"))))
	}
	fmt.Printf("note wal.checkpoint_ms max %.3f ms over %d checkpoints\n", ms(maxD(layers["wal.checkpoint"])), a.counts["wal.checkpoints"])

	var overhead, readSpans []float64
	for i := range e2e.open {
		r := &e2e.open[i]
		if r.err == nil && !isWrite(r.op.class) {
			overhead = append(overhead, float64(r.done.Sub(r.sent).Nanoseconds()-r.serverNS)/1e6)
		}
	}
	for _, d := range append(append([]time.Duration{}, layers["proql.exec"]...), layers["proql.diff"]...) {
		readSpans = append(readSpans, ms(d))
	}
	lateP90, backlogEnd := openPhaseHealth(e2e)
	var unfolds, evals, rootsA, rootsPlain []time.Duration
	var allBindings []int
	for _, c := range allClasses {
		unfolds = append(unfolds, a.unfold[c]...)
		evals = append(evals, a.eval[c]...)
		allBindings = append(allBindings, a.bindings[c]...)
		rootsA = append(rootsA, a.root[c]...)
		rootsPlain = append(rootsPlain, plain.root[c]...)
	}
	var walCkptTotal time.Duration
	for _, d := range layers["wal.checkpoint"] {
		walCkptTotal += d
	}
	return []metric{
		{"proqld.query_overhead_ms", "ms", quantile(overhead, 0.5)},
		{"driver.late_ms", "ms", lateP90},
		{"driver.backlog", "count", float64(backlogEnd)},
		{"proql.parse_us", "us", us(median(layers["proql.parse"]))},
		{"proql.exec_ms.lookup", "ms", ms(median(classSpans(a, cLookup, "proql.exec")))},
		{"proql.exec_ms.read", "ms", quantile(readSpans, 0.5)},
		{"proql.unfold_ms", "ms", ms(median(unfolds))},
		{"proql.eval_ms", "ms", ms(median(evals))},
		{"proql.assemble_ms", "ms", ms(median(layers["proql.assemble"]))},
		{"proql.bindings_per_query", "count", meanI(allBindings)},
		{"proql.allocs_per_query.lookup", "count", meanU(a.allocs[cLookup])},
		{"proql.plancache_hit_ratio", "ratio", float64(a.cacheHits) / float64(max(1, a.cacheLookups))},
		{"relstore.snapshot_at_us", "us", us(median(layers["relstore.snapshot_at"]))},
		{"relstore.begin_batch_us", "us", us(median(layers["relstore.begin_batch"]))},
		{"relstore.retained_versions", "count", float64(a.counts["relstore.retained_versions"])},
		{"core.insert_local_us", "us", us(median(layers["core.insert_local"]))},
		{"exchange.run_delta_ms", "ms", ms(median(layers["exchange.run_delta"]))},
		{"exchange.delta_derivations", "count", float64(a.counts["exchange.delta_derivations"])},
		{"exchange.delete_ms", "ms", ms(median(layers["exchange.delete"]))},
		{"exchange.tuples_visited", "count", float64(a.counts["exchange.tuples_visited"])},
		{"exchange.derivations_visited", "count", float64(a.counts["exchange.derivations_visited"])},
		{"exchange.allocs_per_write", "count", meanU(a.allocs["write"])},
		{"asr.apply_us", "us", us(median(layers["asr.apply"]))},
		{"provgraph.patch_ms", "ms", ms(median(layers["provgraph.patch"]))},
		{"wal.commit_us", "us", us(median(layers["wal.commit"]))},
		{"wal.bytes_per_commit", "B", medianI(a.walBytes)},
		{"wal.checkpoint_ms", "ms", ms(walCkptTotal) / float64(max(1, len(layers["wal.checkpoint"])))},
		{"wal.checkpoints", "count", float64(a.counts["wal.checkpoints"])},
		{"wal.open_ms", "ms", ms(walOpen)},
		{"wal.replayed_batches", "count", float64(e2eReplayed)},
		{"exchange.open_durable_ms", "ms", ms(exOpen)},
		{"trace.unattributed_share.lookup", "ratio", share[cLookup]},
		{"trace.unattributed_share.insert", "ratio", share[cInsert]},
		{"trace.unattributed_share.delete", "ratio", share[cDelete]},
		{"trace.unattributed_share.max", "ratio", worst},
		{"trace.overhead_ms", "ms", ms(median(rootsA)) - ms(median(rootsPlain))},
	}, problems, os.RemoveAll(e2e.crashDir)
}

// classSpans returns the durations of the named child spans of every
// root span of class c.
func classSpans(rs *replayStats, c string, names ...string) []time.Duration {
	spans := rs.tr.spans
	var out []time.Duration
	for _, s := range spans {
		if s.Parent < 0 || spans[s.Parent].Name != c {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				out = append(out, time.Duration(s.End-s.Start))
			}
		}
	}
	return out
}

func sortedKeys(ms ...map[string]int64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// quantile is the nearest-rank q-quantile; NaN without samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

func medianI(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)-1)/2])
}

func maxD(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func meanU(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += float64(x)
	}
	return t / float64(len(xs))
}

func meanI(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(sum(xs)) / float64(len(xs))
}

func sum(xs []int) int64 {
	var t int64
	for _, x := range xs {
		t += int64(x)
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
