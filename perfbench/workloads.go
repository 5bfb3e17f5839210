package main

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Operation classes. Every class is one HTTP request to proqld and one
// root span in the traced replay.
const (
	cLookup   = "lookup"
	cJoin     = "join"
	cAnnotate = "annotate"
	cAsof     = "asof"
	cDiff     = "diff"
	cInsert   = "insert"
	cDelete   = "delete"
)

var allClasses = []string{cLookup, cJoin, cAnnotate, cAsof, cDiff, cInsert, cDelete}

func isWrite(class string) bool { return class == cInsert || class == cDelete }

const (
	batchRows  = 5  // rows per insert/delete request
	categories = 16 // workload.Config default: B partition cardinality
	// deleteLag keeps this many acknowledged batches outstanding before
	// a delete may take the oldest, so a delete's insert has almost
	// always been acknowledged by the time the delete is due.
	deleteLag = 8
	// recentBatches is how far back write-churn lookups reach for
	// just-inserted keys; historyBatches how far back asof anchors
	// reach for keys with history.
	recentBatches  = 4
	historyBatches = 64
	// historyEpochs bounds how far back asof/diff epochs reach; it
	// stays well inside the -retain 256 window even with writes in
	// flight.
	historyEpochs = 200
)

// spec is one workload: the proqld setting, the operation mix and the
// open-loop arrival rate.
type spec struct {
	name   string
	peers  int
	base   int
	retain int64
	// rate is the open-loop arrival rate in operations per second.
	rate float64
	// closedRate sets the closed-loop phase's size: closedRate × the
	// closed share of --seconds operations, split over the clients.
	closedRate float64
	mix        []share
	// recentLookups sends lookups to just-inserted keys instead of
	// keys drawn uniformly from the live instance.
	recentLookups bool
}

type share struct {
	class string
	pct   int
}

var specs = []spec{
	{
		name: "read-mix", peers: 10, base: 500, rate: 15, closedRate: 60,
		mix: []share{{cLookup, 60}, {cJoin, 15}, {cAnnotate, 5}, {cInsert, 10}, {cDelete, 10}},
	},
	{
		name: "write-churn", peers: 20, base: 1000, rate: 40, closedRate: 270,
		mix:           []share{{cInsert, 48}, {cDelete, 48}, {cLookup, 4}},
		recentLookups: true,
	},
	{
		name: "audit", peers: 10, base: 500, retain: 256, rate: 40, closedRate: 100,
		mix: []share{{cInsert, 20}, {cDelete, 20}, {cAsof, 35}, {cDiff, 10}, {cLookup, 15}},
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) config() workload.Config {
	// Seed 42 is proqld's default -seed: the benchmark passes proqld
	// no seed, so the instance data is the server's own.
	return workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  s.peers,
		DataPeers: workload.UpstreamDataPeers(s.peers, 2),
		BaseSize:  s.base,
		Seed:      42,
	}
}

// batch is one 5-row insert and, later, its delete. The commit epochs
// are filled in from the acknowledgements.
type batch struct {
	rel  string
	keys []int64
	rows [][]int64
	ins  commit
	del  *commit // nil: the stream never deletes this batch
}

// commit brackets the epoch at which a write became visible: it is in
// (lo, hi]. lo is the newest epoch the client had seen when it sent
// the request, hi the epoch the response reported. Until the write is
// acknowledged hi is 0, meaning "unknown".
type commit struct {
	lo, hi uint64
}

// op is one generated request.
type op struct {
	class string
	b     *batch // insert/delete
	key   int64  // lookup/join/asof anchor
	frac  float64
	// deps are indices of earlier operations of the same stream that
	// touch the same keys; the operation is not sent before they
	// complete, so its expected answer is fixed.
	deps []int
}

// generator turns a seed into operation streams over one instance.
// Stream 0 is warm-up plus the open-loop phase; each closed-loop
// client has its own stream with its own fresh-key range, so clients
// never touch each other's batches.
type generator struct {
	sp        spec
	initKeys  []int64
	dataPeers []int
	batches   []*batch // every batch of every stream, for the model
}

func newGenerator(sp spec) *generator {
	g := &generator{sp: sp, dataPeers: workload.UpstreamDataPeers(sp.peers, 2)}
	for _, p := range g.dataPeers {
		for i := 0; i < sp.base; i++ {
			g.initKeys = append(g.initKeys, int64(p)*10_000_000+int64(i))
		}
	}
	return g
}

type stream struct {
	g         *generator
	rng       *rand.Rand
	deck      []string // classes still to draw in the current round
	id        int
	nextKey   int64
	live      []*batch // inserted, not yet deleted, oldest first
	inserted  []*batch // every batch this stream inserted, oldest first
	lastTouch map[int64]int
	ops       []op
}

func (g *generator) stream(seed int64, id int) *stream {
	return &stream{
		g:         g,
		rng:       rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		id:        id,
		lastTouch: map[int64]int{},
	}
}

// next appends one operation drawn from the mix. A delete with too few
// outstanding batches becomes an insert, so the stream never deletes a
// batch whose insert may still be in flight.
func (st *stream) next() {
	class := st.pick()
	if class == cDelete && len(st.live) <= deleteLag {
		class = cInsert
	}
	st.add(class)
}

// add appends one operation of the given class; a delete takes the
// oldest outstanding batch.
func (st *stream) add(class string) {
	o := op{class: class}
	idx := len(st.ops)
	switch class {
	case cInsert:
		p := st.g.dataPeers[st.rng.Intn(len(st.g.dataPeers))]
		b := &batch{rel: workload.ARel(p)}
		for i := 0; i < batchRows; i++ {
			k := int64(p)*10_000_000 + int64(st.g.sp.base) + int64(st.id)*1_000_000 + st.nextKey
			st.nextKey++
			row := []int64{k, k % categories}
			for a := 0; a < 10; a++ {
				row = append(row, int64(st.rng.Uint32()))
			}
			b.keys = append(b.keys, k)
			b.rows = append(b.rows, row)
			st.lastTouch[k] = idx
		}
		st.live = append(st.live, b)
		st.inserted = append(st.inserted, b)
		st.g.batches = append(st.g.batches, b)
		o.b = b
	case cDelete:
		b := st.live[0]
		st.live = st.live[1:]
		b.del = &commit{}
		o.b = b
		o.deps = st.touch(idx, b.keys...)
	case cLookup, cJoin:
		if st.g.sp.recentLookups && len(st.live) > 0 {
			n := min(recentBatches, len(st.live))
			b := st.live[len(st.live)-1-st.rng.Intn(n)]
			o.key = b.keys[st.rng.Intn(len(b.keys))]
		} else {
			o.key = st.liveKey()
		}
		o.deps = st.touch(idx, o.key)
	case cAsof:
		// Half the anchors are keys with history (inserted, maybe
		// deleted since), half are keys from the seeded instance.
		if n := min(historyBatches, len(st.inserted)); n > 0 && st.rng.Intn(2) == 0 {
			b := st.inserted[len(st.inserted)-1-st.rng.Intn(n)]
			o.key = b.keys[st.rng.Intn(len(b.keys))]
		} else {
			o.key = st.g.initKeys[st.rng.Intn(len(st.g.initKeys))]
		}
		o.frac = st.rng.Float64()
	case cDiff:
		o.frac = st.rng.Float64()
	}
	st.ops = append(st.ops, o)
}

// liveKey draws uniformly from the live keys: the seeded instance plus
// this stream's outstanding batches.
func (st *stream) liveKey() int64 {
	n := len(st.g.initKeys) + batchRows*len(st.live)
	i := st.rng.Intn(n)
	if i < len(st.g.initKeys) {
		return st.g.initKeys[i]
	}
	i -= len(st.g.initKeys)
	return st.live[i/batchRows].keys[i%batchRows]
}

// touch records that operation idx uses keys and returns the earlier
// operations that used them last.
func (st *stream) touch(idx int, keys ...int64) []int {
	var deps []int
	for _, k := range keys {
		if prev, ok := st.lastTouch[k]; ok {
			deps = append(deps, prev)
		}
		st.lastTouch[k] = idx
	}
	return deps
}

// pick draws a class from the mix without replacement from a shuffled
// deck of 100 (one card per percent), so every 100 operations hold the
// mix exactly and seeds differ only in order and keys.
func (st *stream) pick() string {
	if len(st.deck) == 0 {
		for _, m := range st.g.sp.mix {
			for i := 0; i < m.pct; i++ {
				st.deck = append(st.deck, m.class)
			}
		}
		st.rng.Shuffle(len(st.deck), func(i, j int) { st.deck[i], st.deck[j] = st.deck[j], st.deck[i] })
	}
	c := st.deck[len(st.deck)-1]
	st.deck = st.deck[:len(st.deck)-1]
	return c
}

// plan is the whole seeded request sequence of one run.
type plan struct {
	warm   []op // sequential, untimed
	open   []op // open-loop phase, same stream as warm
	closed [][]op
}

const (
	clients     = 2
	warmInserts = deleteLag + 4
	warmEach    = 3
	openShare   = 0.7 // of --seconds; the closed loop gets the rest
)

// makePlan generates the run's requests from the seed. The open phase
// has rate × 0.7·seconds operations; the closed phase closedRate ×
// 0.3·seconds, split over the two clients.
func makePlan(sp spec, seed int64, seconds float64) (*generator, *plan) {
	g := newGenerator(sp)
	main := g.stream(seed, 0)
	for i := 0; i < warmInserts; i++ {
		main.add(cInsert)
	}
	for _, m := range sp.mix {
		if m.class == cInsert {
			continue
		}
		for i := 0; i < warmEach; i++ {
			main.add(m.class)
		}
	}
	nWarm := len(main.ops)
	nOpen := int(sp.rate*openShare*seconds + 0.5)
	for i := 0; i < nOpen; i++ {
		main.next()
	}
	p := &plan{warm: main.ops[:nWarm], open: main.ops[nWarm:]}
	// The open phase's dependencies index the open slice.
	for i := range p.open {
		p.open[i].deps = shift(p.open[i].deps, nWarm)
	}
	nClosed := int(sp.closedRate*(1-openShare)*seconds/clients + 0.5)
	for c := 0; c < clients; c++ {
		st := g.stream(seed, c+1)
		for i := 0; i < nClosed; i++ {
			st.next()
		}
		p.closed = append(p.closed, st.ops)
	}
	return g, p
}

// shift rebases dependency indices by -n, dropping those before the
// slice (warm-up operations have all completed).
func shift(deps []int, n int) []int {
	var out []int
	for _, d := range deps {
		if d >= n {
			out = append(out, d-n)
		}
	}
	return out
}

// Query texts. Every query is sent with backend "auto", as a default
// client would.
func lookupQuery(k int64) string {
	return fmt.Sprintf("FOR [A0 $x] WHERE $x.k = %d INCLUDE PATH [$x] <-+ [] RETURN $x", k)
}

func joinQuery(k int64) string {
	return fmt.Sprintf("FOR [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] WHERE $x.k = %d RETURN $x, $y", k)
}

const annotateQuery = `EVALUATE TRUST OF { FOR [A0 $x] INCLUDE PATH [$x] <-+ [] RETURN $x } ASSIGNING EACH leaf_node $y { DEFAULT : SET true }`

// diffQuery lists the target relation; its appeared/disappeared
// bindings are exactly the keys inserted or deleted in the window.
const diffQuery = `FOR [A0 $x] RETURN $x`

func refName(rel string, k int64) string { return fmt.Sprintf("%s(i%d|)", rel, k) }
