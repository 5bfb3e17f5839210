package main

import (
	"fmt"
	"sort"
	"strings"
)

// tri is a three-valued truth: a write whose commit epoch is only
// known to lie in (lo, hi] makes a key's presence at epochs inside
// that bracket unknown, and any answer is accepted there.
type tri int8

const (
	no tri = iota
	yes
	maybe
)

func (c commit) at(e uint64) tri {
	switch {
	case c.hi == 0:
		return maybe // never acknowledged
	case e >= c.hi:
		return yes
	case e <= c.lo:
		return no
	}
	return maybe
}

// ackModel is the client's record of acknowledged commits, built after
// the run from the generator's batches and the epochs the responses
// reported.
type ackModel struct {
	g       *generator
	batchOf map[int64]*batch
	isInit  map[int64]bool
}

func newModel(g *generator) *ackModel {
	m := &ackModel{g: g, batchOf: map[int64]*batch{}, isInit: map[int64]bool{}}
	for _, k := range g.initKeys {
		m.isInit[k] = true
	}
	for _, b := range g.batches {
		for _, k := range b.keys {
			m.batchOf[k] = b
		}
	}
	return m
}

// alive reports whether key k is in A0 at epoch e. Seeded keys are
// never deleted.
func (m *ackModel) alive(k int64, e uint64) tri {
	if m.isInit[k] {
		return yes
	}
	b, ok := m.batchOf[k]
	if !ok {
		return no
	}
	ins := b.ins.at(e)
	del := no
	if b.del != nil {
		del = b.del.at(e)
	}
	switch {
	case ins == yes && del == no:
		return yes
	case ins == no || del == yes:
		return no
	}
	return maybe
}

// countRange bounds how many keys matching keep are in A0 at some
// epoch of [e1, e2] (the answer's snapshot epoch lies in that window).
func (m *ackModel) countRange(e1, e2 uint64, keep func(int64) bool) (lo, hi int) {
	lo = -1
	for e := e1; e <= e2; e++ {
		sure, unsure := 0, 0
		for _, k := range m.g.initKeys {
			if keep(k) {
				sure++
			}
		}
		for _, b := range m.g.batches {
			for _, k := range b.keys {
				if !keep(k) {
					continue
				}
				switch m.alive(k, e) {
				case yes:
					sure++
				case maybe:
					unsure++
				}
			}
		}
		if lo < 0 || sure < lo {
			lo = sure
		}
		hi = max(hi, sure+unsure)
	}
	return lo, hi
}

// consistent reports whether presence (or absence, for present=false)
// of k matches the model at some epoch of [e1, e2].
func (m *ackModel) consistent(k int64, e1, e2 uint64, present bool) bool {
	for e := e1; e <= e2; e++ {
		a := m.alive(k, e)
		if a == maybe || (a == yes) == present {
			return true
		}
	}
	return false
}

// window returns the epochs an answer may have been computed at.
func window(r *result) (uint64, uint64) {
	e1, e2 := r.seenAtSend, r.epoch
	if e2 < e1 {
		e2 = e1
	}
	return e1, e2
}

// check verifies one response against the model. It returns "" when
// the answer is right.
func (m *ackModel) check(r *result) string {
	if r.err != nil {
		return r.err.Error()
	}
	o := r.op
	switch o.class {
	case cInsert, cDelete:
		if r.applied != batchRows {
			return fmt.Sprintf("%s applied %d rows, want %d", o.class, r.applied, batchRows)
		}
		return ""
	case cLookup:
		e1, e2 := window(r)
		return m.checkAnchored(r.x, o.key, e1, e2)
	case cAsof:
		if r.asOf != r.wantAsOf {
			return fmt.Sprintf("asof echoed epoch %d, want %d", r.asOf, r.wantAsOf)
		}
		return m.checkAnchored(r.x, o.key, r.wantAsOf, r.wantAsOf)
	case cJoin:
		e1, e2 := window(r)
		if msg := m.checkAnchored(r.x, o.key, e1, e2); msg != "" {
			return "join: " + msg
		}
		if len(r.x) == 0 {
			if len(r.y) != 0 {
				return fmt.Sprintf("join of absent key %d returned %d partners", o.key, len(r.y))
			}
			return ""
		}
		// $y ranges over the A1 tuples sharing an ancestor with $x:
		// the key's own upstream tuple and every key of its category
		// (they share the B tuples of that category).
		if !contains(r.y, refName("A1", o.key)) {
			return fmt.Sprintf("join of %d misses its own A1 tuple", o.key)
		}
		c := o.key % categories
		lo, hi := m.countRange(e1, e2, func(k int64) bool { return k%categories == c })
		if n := len(r.y); n < lo || n > hi {
			return fmt.Sprintf("join of %d returned %d partners, want %d..%d", o.key, n, lo, hi)
		}
		return ""
	case cAnnotate:
		e1, e2 := window(r)
		lo, hi := m.countRange(e1, e2, func(int64) bool { return true })
		if n := len(r.x); n < lo || n > hi {
			return fmt.Sprintf("annotate returned %d A0 tuples, want %d..%d", n, lo, hi)
		}
		return ""
	case cDiff:
		return m.checkDiff(r)
	}
	return "unknown class " + o.class
}

// checkAnchored checks a single-anchor answer: exactly A0(k) when the
// key is live at some epoch of the window, nothing when it is absent.
func (m *ackModel) checkAnchored(x []string, k int64, e1, e2 uint64) string {
	switch {
	case len(x) == 0:
		if !m.consistent(k, e1, e2, false) {
			return fmt.Sprintf("key %d missing at epochs %d..%d", k, e1, e2)
		}
	case len(x) == 1 && x[0] == refName("A0", k):
		if !m.consistent(k, e1, e2, true) {
			return fmt.Sprintf("key %d present at epochs %d..%d after its delete", k, e1, e2)
		}
	default:
		return fmt.Sprintf("key %d: answer %v is not anchored at A0(%d)", k, trim(x), k)
	}
	return ""
}

// checkDiff compares appeared/disappeared counts with the model's net
// change of A0 between the two epochs.
func (m *ackModel) checkDiff(r *result) string {
	from, to := r.from, r.to
	var appLo, appHi, disLo, disHi int
	for _, b := range m.g.batches {
		for _, k := range b.keys {
			a0, a1 := m.alive(k, from), m.alive(k, to)
			if a0 == no && a1 == yes {
				appLo++
			}
			if a0 != yes && a1 != no {
				appHi++
			}
			if a0 == yes && a1 == no {
				disLo++
			}
			if a0 != no && a1 != yes {
				disHi++
			}
		}
	}
	if r.appeared < appLo || r.appeared > appHi || r.disappeared < disLo || r.disappeared > disHi {
		return fmt.Sprintf("diff %d→%d: %d appeared / %d disappeared, want %d..%d / %d..%d",
			from, to, r.appeared, r.disappeared, appLo, appHi, disLo, disHi)
	}
	return ""
}

// checkRecovered compares the A0 keys a restarted server lists with
// the acknowledged state: every acknowledged insert present, every
// acknowledged delete absent.
func (m *ackModel) checkRecovered(x []string, epoch uint64) string {
	got := map[string]bool{}
	for _, ref := range x {
		got[ref] = true
	}
	var missing, extra []string
	check := func(k int64) {
		ref := refName("A0", k)
		switch m.alive(k, epoch) {
		case yes:
			if !got[ref] {
				missing = append(missing, ref)
			}
		case no:
			if got[ref] {
				extra = append(extra, ref)
			}
		}
		delete(got, ref)
	}
	for _, k := range m.g.initKeys {
		check(k)
	}
	for _, b := range m.g.batches {
		for _, k := range b.keys {
			check(k)
		}
	}
	for ref := range got {
		extra = append(extra, ref)
	}
	if len(missing)+len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("after restart: %d acknowledged rows missing %v, %d deleted or unknown rows present %v",
		len(missing), trim(missing), len(extra), trim(extra))
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func trim(xs []string) string {
	if len(xs) > 4 {
		return "[" + strings.Join(xs[:4], " ") + " …]"
	}
	return "[" + strings.Join(xs, " ") + "]"
}
