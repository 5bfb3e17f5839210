package main

import (
	"fmt"
	"os"
	"time"
)

const (
	// A run makes restartRounds rounds of restartsPerRound SIGKILL
	// restarts (recover_s is their median) and one fresh launch
	// (setup_s is the median of these and the first launch). Restarts
	// and launches alternate, so both sets of samples spread over
	// seconds of the machine's speed drift rather than one burst.
	restartRounds    = 11
	restartsPerRound = 2
	// padAfter is how many insert/delete pairs (3 logged batches each)
	// settle commits after a checkpoint: about half of proqld's
	// -checkpoint-every 256, the mean log suffix a crash finds.
	padAfter = 42
	// padLimit bounds the pairs settle waits for a checkpoint.
	padLimit = 200
)

// e2eRun is what the untraced HTTP run measured.
type e2eRun struct {
	setups, recovers []time.Duration
	warm, open       []result
	closed, pad      []result
	closedWall       time.Duration
	peakRSSMB        float64
	rssMB            []float64 // VmRSS samples over the timed phases
	diskBytes        int64
	final            statsResponse
	// problems are failed checks that are not single requests:
	// durability after restart, final-state agreement, trace rules.
	problems  []string
	wrong     []string // first few wrong answers, for the log
	failed    int
	attempted int
	crashDir  string // copy of the data dir after the last SIGKILL (trace runs)
}

// runE2E starts proqld on a fresh directory, drives the plan over
// loopback, checks every answer, and measures restart after SIGKILL.
// An error means the benchmark could not run at all.
func runE2E(bin, work string, sp spec, g *generator, p *plan, keepCrash bool) (*e2eRun, error) {
	dir := work + "/data"
	srv, err := newServer(bin, dir, sp)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	run := &e2eRun{}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := srv.start()
	if err != nil {
		return nil, err
	}
	run.setups = append(run.setups, d)
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	rn := &runner{srv: srv, setupEpoch: st.Epoch}
	rn.observe(st.Epoch)

	stop := make(chan struct{})
	samples := srv.sampleRSS(stop)
	run.warm = rn.sequential(p.warm)
	run.open = rn.openLoop(p.open, sp.rate)
	run.closed, run.closedWall = rn.closedLoop(p.closed)
	close(stop)
	run.rssMB = <-samples

	// The final state the traced replay must reach.
	if run.final, err = srv.stats(); err != nil {
		return nil, err
	}
	if run.pad, err = rn.settle(g, dir); err != nil {
		return nil, err
	}
	m := newModel(g)
	for _, phase := range [][]result{run.warm, run.open, run.closed, run.pad} {
		for i := range phase {
			run.attempted++
			if msg := m.check(&phase[i]); msg != "" {
				run.failed++
				if len(run.wrong) < 5 {
					run.wrong = append(run.wrong, msg)
				}
			}
		}
	}

	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	if run.peakRSSMB, err = srv.procStatusMB("VmHWM"); err != nil {
		return nil, err
	}
	if run.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	if before.Epoch < rn.seen.Load() {
		run.problems = append(run.problems, fmt.Sprintf("stats epoch %d below acknowledged epoch %d", before.Epoch, rn.seen.Load()))
	}

	// Crash and restart on the same directory: every acknowledged
	// write must survive, every acknowledged delete must stay gone,
	// and the epoch must not go back. Between restarts, a fresh
	// launch on another directory gives one more set-up sample.
	freshDir := work + "/fresh"
	fresh, err := newServer(bin, freshDir, sp)
	if err != nil {
		return nil, err
	}
	defer fresh.kill()
	for i := 0; i < restartRounds; i++ {
		for j := 0; j < restartsPerRound; j++ {
			srv.kill()
			d, err := srv.start()
			if err != nil {
				return nil, fmt.Errorf("restart after SIGKILL: %w", err)
			}
			run.recovers = append(run.recovers, d)
			run.attempted++
			if msg := checkRestart(srv, m, before); msg != "" {
				run.failed++
				run.problems = append(run.problems, msg)
			}
		}
		srv.kill()

		if err := os.RemoveAll(freshDir); err != nil {
			return nil, err
		}
		if d, err = fresh.start(); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, d)
		fresh.kill()
	}
	if err := os.RemoveAll(freshDir); err != nil {
		return nil, err
	}
	if keepCrash {
		run.crashDir = work + "/crashed"
		if err := copyTree(dir, run.crashDir); err != nil {
			return nil, err
		}
	}
	return run, os.RemoveAll(dir)
}

func checkRestart(srv *server, m *ackModel, before statsResponse) string {
	st, err := srv.stats()
	if err != nil {
		return "stats after restart: " + err.Error()
	}
	if st.Epoch < before.Epoch {
		return fmt.Sprintf("epoch went back from %d to %d across restart", before.Epoch, st.Epoch)
	}
	if st.InstanceSize != before.InstanceSize {
		return fmt.Sprintf("instance size %d after restart, %d before", st.InstanceSize, before.InstanceSize)
	}
	var qr queryResponse
	if err := srv.post("/v1/query", queryRequest{Query: diffQuery, Backend: "auto"}, &qr); err != nil {
		return "query after restart: " + err.Error()
	}
	return m.checkRecovered(qr.Bindings["x"], before.Epoch)
}

// settle brings the data directory to a fixed point of the checkpoint
// cycle before the crash, so restart time and disk footprint do not
// depend on where a seed's last write fell in the cycle. It commits
// insert/delete pairs of padding batches until proqld writes a new
// checkpoint, then padAfter more pairs. The padding batches are part
// of the model like any other write.
func (rn *runner) settle(g *generator, dir string) ([]result, error) {
	pad := g.stream(0, clients+1)
	pair := func() []result {
		pad.add(cInsert)
		pad.add(cDelete)
		ops := pad.ops[len(pad.ops)-2:]
		return []result{rn.do(&ops[0]), rn.do(&ops[1])}
	}
	var out []result
	gen := checkpointGen(dir)
	for i := 0; checkpointGen(dir) == gen; i++ {
		if i == padLimit {
			return nil, fmt.Errorf("no checkpoint after %d padding pairs", padLimit)
		}
		out = append(out, pair()...)
	}
	for i := 0; i < padAfter; i++ {
		out = append(out, pair()...)
	}
	for i := range out {
		out[i].due = out[i].sent
	}
	return out, nil
}

// checkpointGen returns the newest checkpoint generation in a store
// directory (files ckpt-<gen>.ckpt), or -1 when there is none.
func checkpointGen(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	gen := int64(-1)
	for _, e := range entries {
		var n int64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d.ckpt", &n); err == nil && n > gen {
			gen = n
		}
	}
	return gen
}
