// Command perfbench is the end-to-end benchmark of proqld, the ProQL
// server. It starts cmd/proqld as a child process on a fresh data
// directory, drives it over loopback with a seeded operation stream
// (an open-loop phase at a fixed arrival rate for latency, a
// closed-loop phase with two clients for throughput), checks every
// answer against a model of the acknowledged commits, kills the server
// with SIGKILL and measures the restart. With -trace 1 it then replays
// the same stream in process, timing the calls into each layer, and
// prints per-layer metrics instead.
//
// Run it through perfbench/run.sh from the repository root; see
// perfbench/README.md for workloads and metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 612, "failed": 0, "metrics": {"setup_s": {"value": 0.18, "unit": "s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "read-mix", "workload: read-mix, write-churn or audit")
		seed    = flag.Int64("seed", 1, "seed of the operation stream")
		seconds = flag.Float64("seconds", 20, "measured time: the open-loop phase takes 70%, the closed loop about 30%")
		trace   = flag.Int("trace", 0, "1 = also replay in process and print per-layer metrics instead of end-to-end ones")
		bin     = flag.String("proqld", "", "proqld binary")
		work    = flag.String("work", ".bench_build/work", "working directory for data directories and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named output value.
type metric struct {
	name  string
	unit  string
	value float64
}

func run(name string, seed int64, seconds float64, traced bool, bin, work string) error {
	if bin == "" {
		return fmt.Errorf("-proqld is required")
	}
	sp, err := findSpec(name)
	if err != nil {
		return err
	}
	// One client process with at most two OS threads running Go code
	// and two connections.
	runtime.GOMAXPROCS(clients)
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	g, p := makePlan(sp, seed, seconds)
	fmt.Printf("workload %s seed %d: %d warm-up, %d open-loop ops at %.0f/s, %d closed-loop ops over %d clients\n",
		name, seed, len(p.warm), len(p.open), sp.rate, len(p.closed[0])*len(p.closed), clients)
	e2e, err := runE2E(bin, dir, sp, g, p, traced)
	if err != nil {
		return err
	}
	for _, w := range e2e.wrong {
		fmt.Println("WRONG:", w)
	}
	problems := e2e.problems
	var out []metric
	if !traced {
		out = endToEnd(e2e)
	} else {
		var more []string
		out, more, err = perLayer(sp, p, e2e, dir, fmt.Sprintf("%s/trace-%s-%d.jsonl", filepath.Dir(dir), name, seed))
		if err != nil {
			return err
		}
		problems = append(problems, more...)
	}
	for _, pr := range problems {
		fmt.Println("CHECK FAILED:", pr)
	}
	return report(e2e.failed == 0 && len(problems) == 0, e2e.attempted, e2e.failed, out)
}

// report prints the metrics one per line, then the JSON result line.
func report(correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		fmt.Printf("%-40s %14.4f %s\n", m.name, v, m.unit)
		vals[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, vals})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the user-visible metrics from the HTTP run. Every
// latency is from the open-loop phase, measured from when the request
// was due. Per-class figures of classes only some workloads send are
// printed as notes above the metrics.
func endToEnd(r *e2eRun) []metric {
	lat := map[string][]float64{}
	var reads, all []float64
	for i := range r.open {
		res := &r.open[i]
		if res.err != nil {
			continue
		}
		ms := float64(res.latency().Nanoseconds()) / 1e6
		lat[res.op.class] = append(lat[res.op.class], ms)
		all = append(all, ms)
		if !isWrite(res.op.class) {
			reads = append(reads, ms)
		}
	}
	for _, c := range allClasses {
		if xs := lat[c]; len(xs) > 0 {
			note := fmt.Sprintf("note %s_p50_ms %.3f ms (n=%d)", c, quantile(xs, 0.5), len(xs))
			if len(xs) >= 100 {
				note += fmt.Sprintf("; %s_p90_ms %.3f ms", c, quantile(xs, 0.9))
			}
			fmt.Println(note)
		}
	}
	fmt.Printf("note op_p90_ms %.3f ms (n=%d)\n", quantile(all, 0.9), len(all))
	openPhaseHealth(r)
	fmt.Printf("note peak_rss_mb %.1f MB (VmHWM before the crash)\n", r.peakRSSMB)
	attempted := float64(r.attempted)
	return []metric{
		{"setup_s", "s", median(r.setups).Seconds()},
		{"recover_s", "s", median(r.recovers).Seconds()},
		{"lookup_p50_ms", "ms", quantile(lat[cLookup], 0.5)},
		{"read_p50_ms", "ms", quantile(reads, 0.5)},
		{"insert_p50_ms", "ms", quantile(lat[cInsert], 0.5)},
		{"delete_p50_ms", "ms", quantile(lat[cDelete], 0.5)},
		{"ops_per_s", "1/s", float64(len(r.closed)) / r.closedWall.Seconds()},
		{"rss_mb", "MB", quantile(r.rssMB, 0.5)},
		{"disk_bytes_per_row", "B/row", float64(r.diskBytes) / float64(r.final.InstanceSize)},
		{"ok_frac", "ratio", (attempted - float64(r.failed)) / attempted},
	}
}

// openPhaseHealth reports the generator's p90 lateness (ms) and the
// backlog at the last due time. It prints a note marking the phase
// invalid, not slow, when the backlog grew over the phase: the
// arrival rate was above capacity and the latencies measure queueing.
func openPhaseHealth(r *e2eRun) (lateP90 float64, backlogEnd int) {
	var late []float64
	for i := range r.open {
		late = append(late, float64(r.open[i].sent.Sub(r.open[i].due).Nanoseconds())/1e6)
	}
	n := len(r.open)
	mid := backlog(r.open, r.open[n/2].due)
	backlogEnd = backlog(r.open, r.open[n-1].due)
	lateP90 = quantile(late, 0.9)
	fmt.Printf("note open loop: p90 lateness %.3f ms, backlog %d at mid-phase, %d at the last arrival\n", lateP90, mid, backlogEnd)
	if backlogEnd > clients && backlogEnd > mid {
		fmt.Println("note open-loop phase INVALID: the backlog grew, the arrival rate is above capacity")
	}
	return lateP90, backlogEnd
}
