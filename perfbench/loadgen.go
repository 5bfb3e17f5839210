package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// result is one request as the client saw it.
type result struct {
	op              *op
	due, sent, done time.Time
	seenAtSend      uint64 // newest epoch the client had seen when sending
	err             error
	x, y            []string // query bindings
	epoch           uint64   // epoch the response reported
	asOf, wantAsOf  uint64
	from, to        uint64
	appeared        int
	disappeared     int
	applied         int
	serverNS        int64
}

// latency is measured from when the request was due, so a stall is
// charged to every request queued behind it.
func (r *result) latency() time.Duration { return r.done.Sub(r.due) }

// runner drives one proqld over HTTP.
type runner struct {
	srv        *server
	setupEpoch uint64
	seen       atomic.Uint64
}

func (rn *runner) observe(e uint64) {
	for {
		cur := rn.seen.Load()
		if e <= cur || rn.seen.CompareAndSwap(cur, e) {
			return
		}
	}
}

// historyEpoch maps frac ∈ [0,1) onto the epochs asof and diff may
// read: from max(setup, cur-historyEpochs) up to cur.
func historyEpoch(frac float64, setup, cur uint64) uint64 {
	lo := setup
	if cur > historyEpochs && cur-historyEpochs > lo {
		lo = cur - historyEpochs
	}
	if lo > cur {
		lo = cur
	}
	return lo + uint64(frac*float64(cur-lo))
}

func (rn *runner) do(o *op) result {
	seen := rn.seen.Load()
	res := result{op: o, seenAtSend: seen, sent: time.Now()}
	switch o.class {
	case cLookup, cJoin, cAnnotate, cAsof:
		req := queryRequest{Backend: "auto"}
		switch o.class {
		case cLookup:
			req.Query = lookupQuery(o.key)
		case cJoin:
			req.Query = joinQuery(o.key)
		case cAnnotate:
			req.Query = annotateQuery
		case cAsof:
			req.Query = lookupQuery(o.key)
			req.AsOf = historyEpoch(o.frac, rn.setupEpoch, seen)
			res.wantAsOf = req.AsOf
		}
		var qr queryResponse
		res.err = rn.srv.post("/v1/query", req, &qr)
		res.x, res.y = qr.Bindings["x"], qr.Bindings["y"]
		res.epoch, res.asOf, res.serverNS = qr.Epoch, qr.AsOf, qr.ElapsedNS
	case cDiff:
		res.from, res.to = historyEpoch(o.frac, rn.setupEpoch, seen), seen
		var dr diffResponse
		res.err = rn.srv.post("/v1/diff", diffRequest{Query: diffQuery, Backend: "auto", From: res.from, To: res.to}, &dr)
		res.appeared, res.disappeared, res.serverNS = len(dr.Appeared), len(dr.Disappeared), dr.ElapsedNS
		res.epoch = seen
	case cInsert:
		var mr mutateResponse
		res.err = rn.srv.post("/v1/insert", insertRequest{Relation: o.b.rel, Rows: o.b.rows}, &mr)
		res.applied, res.epoch = mr.Applied, mr.Epoch
		if res.err == nil {
			o.b.ins = commit{lo: seen, hi: mr.Epoch}
		}
	case cDelete:
		keys := make([][]int64, len(o.b.keys))
		for i, k := range o.b.keys {
			keys[i] = []int64{k}
		}
		var mr mutateResponse
		res.err = rn.srv.post("/v1/delete", deleteRequest{Relation: o.b.rel, Keys: keys}, &mr)
		res.applied, res.epoch = mr.Applied, mr.Epoch
		if res.err == nil {
			*o.b.del = commit{lo: seen, hi: mr.Epoch}
		}
	}
	res.done = time.Now()
	if res.err == nil {
		rn.observe(res.epoch)
	}
	return res
}

// sequential runs ops one after another (warm-up).
func (rn *runner) sequential(ops []op) []result {
	out := make([]result, len(ops))
	for i := range ops {
		out[i] = rn.do(&ops[i])
		out[i].due = out[i].sent
	}
	return out
}

// openLoop sends ops at a fixed arrival rate over at most `clients`
// connections, each request when it is due (or as soon as a connection
// and its dependencies free up).
func (rn *runner) openLoop(ops []op, rate float64) []result {
	n := len(ops)
	out := make([]result, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * period)
				time.Sleep(time.Until(due))
				for _, d := range ops[i].deps {
					<-done[d]
				}
				out[i] = rn.do(&ops[i])
				out[i].due = due
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs one client per stream, each sending its next request
// when the previous one returns. It returns the results and the wall
// time of the phase.
func (rn *runner) closedLoop(streams [][]op) ([]result, time.Duration) {
	outs := make([][]result, len(streams))
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = rn.sequential(streams[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(begin)
	var all []result
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, wall
}

// backlog counts requests due by t that had not completed by t.
func backlog(res []result, t time.Time) int {
	n := 0
	for i := range res {
		if !res[i].due.After(t) && res[i].done.After(t) {
			n++
		}
	}
	return n
}
