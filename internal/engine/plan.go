package engine

import (
	"strconv"
	"sync"

	"coral/internal/relation"
	"coral/internal/term"
)

// Cost-based join planning (paper §5.3: the optimizer chooses literal
// order and index annotations; here the choice is made at evaluation time
// from live relation statistics).
//
// For each compiled rule version (rule × delta position) the planner picks
// a body schedule greedily: the delta literal seeds the join — its
// [Last, Now) range is the smallest scan in the version — and each step
// appends the relation literal with the cheapest estimated scan given the
// variables already bound, pricing a literal at rows divided by the
// distinct-value counts of its bound argument positions (HashRelation
// statistics, relation/stats.go). Builtins and negations are flushed into
// the schedule at the earliest position where their groundness
// requirements hold, so a planned order never reaches a comparison or a
// "not" with unbound operands that the written order would have had bound.
//
// Mode safety: a rule is left in its written order whenever reordering
// could observably change behavior — a comparison or negation whose
// operands are not bound at its written position (the written order throws
// or depends on call bindings), or a "=" whose arithmetic-shaped side is
// unbound as written (it unifies symbolically; evaluating it after its
// variables are bound would change answers). A "=" both of whose sides may
// be numbers is scheduled only where each side is bound exactly when it is
// bound as written: both bound, it compares numerically (2 = 2.0 holds);
// one free, it binds (X = 2.0 stores a Float that a later n(2) does not
// match). Pure structural "=" commutes with the join and is scheduled as
// early as possible. Semi-naive scan ranges are assigned by written
// occurrence (CItem.OrigPos), so any permutation reads exactly the ranges
// the written rule would.
//
// An evaluation caches its choice per (rule, delta position) and re-fits
// when the cardinality of any body relation has drifted past a threshold
// since the fit — across semi-naive rounds that keeps re-planning cheap while
// tracking the shrinking deltas. The choice is a schedule; the artefact it
// names — the clone with BoundPos and BacktrackTo recomputed for the
// schedule, and its bytecode — is a pure function of (rule, delta position,
// schedule) and is built once per Program (planMemo), however many calls and
// sessions choose it. Every fitted schedule, the written order included,
// gets the argument-form indexes its bound positions probe
// (ensurePlanIndexes), so every bound literal is served from an index.

// planKey identifies one cached plan: a compiled rule version.
type planKey struct {
	c     *Compiled
	delta int // ruleRanges.DeltaPos of the version; -1 for full extents
}

// cachedPlan is one evaluation's fitted choice for a rule version plus the
// cardinalities it was fitted at. srcs and rels are the written body items'
// sources and their hash relations (nil for builtins, unresolved sources and
// — rels — sources without statistics), resolved once so the per-round drift
// check reads row counts and nothing else.
type cachedPlan struct {
	planned *Compiled // memoised clone (the written rule when identity)
	srcs    []Source
	rels    []*relation.HashRelation
	fitRows []int
}

// planMemoKey names one planned artefact: sched lists the written body
// positions in schedule order. A rule's delta versions that choose the same
// schedule share the clone.
type planMemoKey struct {
	c     *Compiled
	sched string
}

// planMemo holds a Program's planned rule versions, each carrying its
// bytecode once it has run. An entry is a pure function of its key and
// immutable once stored, so concurrent evaluations (Views) share the clones
// freely; the size is bounded by rule versions × schedules ever chosen, not
// by calls.
type planMemo struct {
	mu sync.Mutex
	m  map[planMemoKey]*Compiled // guarded_by(mu)
}

// planned returns the clone of c scheduled in the given order, building it
// on first sight (its bytecode follows on first run, Compiled.program).
func (p *Program) planned(c *Compiled, sched []int) *Compiled {
	sig := make([]byte, 0, 4*len(sched))
	for _, oi := range sched {
		sig = strconv.AppendInt(sig, int64(oi), 10)
		sig = append(sig, ',')
	}
	key := planMemoKey{c: c, sched: string(sig)}
	p.plans.mu.Lock()
	defer p.plans.mu.Unlock()
	if nc, ok := p.plans.m[key]; ok {
		return nc
	}
	nc := buildPlanned(c, sched)
	if p.plans.m == nil {
		p.plans.m = make(map[planMemoKey]*Compiled)
	}
	p.plans.m[key] = nc
	return nc
}

const (
	// unknownRows prices sources without statistics (module calls,
	// computed and persistent relations) so that relations with known
	// statistics are preferred as join drivers.
	unknownRows = 1 << 20
	// defaultDistinct is the selectivity credited to a bound argument
	// position with no usable distinct-value estimate.
	defaultDistinct = 10
	// driftFactor and driftSlack control plan invalidation: a plan is
	// re-fitted when some body relation's cardinality has grown or shrunk
	// by more than driftFactor× since the fit, ignoring absolute moves
	// smaller than driftSlack rows.
	driftFactor = 2
	driftSlack  = 16
	// planGainMargin: a greedy schedule is adopted only when its estimated
	// work beats the written order's by this factor. Near-ties keep the
	// written order — the estimates are coarse, and the author's order often
	// encodes locality the model cannot see (e.g. a delta-seeded schedule
	// performs more small indexed probes than the written linear rule).
	planGainMargin = 1.25
)

// planFor is the round prologue for one rule version: it returns the rule to
// evaluate for version (c, delta) — a planned clone, or c itself when the
// evaluation keeps the written order (configureEval), or planning is unsafe
// or a no-op. A fit also creates the indexes the chosen schedule probes
// (ensurePlanIndexes), so planFor must be called from the evaluation's
// writer goroutine — it may create relations, indexes and cache entries.
func (me *matEval) planFor(c *Compiled, delta int) *Compiled {
	if !me.planning || len(c.Body) < 2 {
		return c
	}
	key := planKey{c: c, delta: delta}
	p := me.plans[key]
	if p == nil || p.drifted() {
		stats, np := me.bodyStats(c)
		np.planned = me.fitPlan(c, delta, stats)
		me.ensurePlanIndexes(np)
		if me.plans == nil {
			me.plans = make(map[planKey]*cachedPlan)
		}
		me.plans[key], p = np, np
	}
	return p.planned
}

// bodyStats resolves the statistics of every body relation item, and starts
// the cache entry that will watch them: the relations and their row counts
// at fit time. Sources that keep no statistics (module calls, computed and
// persistent relations) stay nil there and never count as drift.
func (me *matEval) bodyStats(c *Compiled) ([]relation.Stats, *cachedPlan) {
	stats := make([]relation.Stats, len(c.Body))
	p := &cachedPlan{srcs: make([]Source, len(c.Body)), rels: make([]*relation.HashRelation, len(c.Body)), fitRows: make([]int, len(c.Body))}
	for i := range c.Body {
		it := &c.Body[i]
		if it.Kind == ItemBuiltin {
			continue
		}
		var hr *relation.HashRelation
		if src, err := me.st.source(it.Pred); err == nil { // else: let evaluation surface the error
			// A snapshot view prices joins from the live statistics of its
			// underlying relation (reads are clamped to the captured mark, but
			// the live counts are the better-maintained estimate and appends
			// during serving are fenced anyway).
			p.srcs[i], hr = src, hashRelOf(src)
		}
		if hr != nil {
			st := hr.Stats()
			// lint:allow roviol — the cache entry only reads Len() for the
			// drift check; it lives and dies with this evaluation.
			p.rels[i], p.fitRows[i] = hr, st.Rows // drift tracks the live count, not the prior
			if st.Rows == 0 {
				// Cold start: a derived relation before its first round.
				// Price it from the static estimate; once rows appear the
				// drift check re-fits against live statistics.
				if ss, sok := me.seed.stats(it.Pred); sok {
					st = ss
				}
			}
			stats[i] = st
		} else if ss, sok := me.seed.stats(it.Pred); sok {
			// Module-call and computed sources keep no statistics; the
			// static estimate replaces the blind unknownRows price.
			stats[i] = ss
		} else {
			stats[i] = relation.Stats{Rows: unknownRows}
		}
	}
	return stats, p
}

// drifted reports whether current row counts have moved past the
// invalidation threshold relative to the fit-time counts.
func (p *cachedPlan) drifted() bool {
	for i, r := range p.rels {
		if r == nil {
			continue
		}
		lo, hi := p.fitRows[i], r.Len()
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo >= driftSlack && lo*driftFactor < hi {
			return true
		}
	}
	return false
}

// fitPlan computes the greedy schedule for one rule version. It returns c
// unchanged when the rule cannot be reordered safely or the schedule does
// not beat the written order.
func (me *matEval) fitPlan(c *Compiled, delta int, stats []relation.Stats) *Compiled {
	n := len(c.Body)
	// Groundness requirements per item: the env slots that must be bound
	// before the item may be scheduled. nil means none.
	reqs := make([]map[int]bool, n)
	for i := range c.Body {
		it := &c.Body[i]
		switch it.Kind {
		case ItemRel:
		case ItemNegRel:
			reqs[i] = slotsOf(it.Args)
		case ItemBuiltin:
			switch {
			case it.Op == "=" && len(it.Args) == 2:
				s := make(map[int]bool)
				for _, side := range it.Args {
					if isArithTerm(side) {
						addSlots(side, s)
					}
				}
				reqs[i] = s
			case cmpBuiltins[it.Op]:
				reqs[i] = slotsOf(it.Args)
			default:
				return c // unknown builtin: keep the written order
			}
		}
	}
	// The written order must itself meet every requirement (under the
	// conservative binding propagation below); otherwise the written
	// behavior — a groundness throw, a symbolic unification, bindings
	// through non-ground facts — is the semantics, and reordering could
	// change it.
	bound := make(map[int]bool)
	var modes []uint8 // eqMode as written, per numeric "="; nil when none
	for i := range c.Body {
		if !slotsSubset(reqs[i], bound) {
			return c
		}
		if it := &c.Body[i]; numericEq(it) {
			if modes == nil {
				modes = make([]uint8, n)
			}
			modes[i] = eqMode(it, bound)
			for _, side := range it.Args {
				if coveredBy(side, bound) {
					addSlots(side, reqs[i])
				}
			}
		}
		bindSlots(&c.Body[i], bound)
	}

	scheduled := make([]bool, n)
	order := make([]int, 0, n)
	bound = make(map[int]bool)
	modeChanged := false
	schedule := func(i int) {
		if modes != nil && numericEq(&c.Body[i]) && eqMode(&c.Body[i], bound) != modes[i] {
			modeChanged = true // a side bound earlier than written
		}
		scheduled[i] = true
		order = append(order, i)
		bindSlots(&c.Body[i], bound)
	}
	// flush schedules every eligible builtin/negation, earliest written
	// first, repeating while new bindings enable more.
	flush := func() {
		for changed := true; changed; {
			changed = false
			for i := range c.Body {
				if scheduled[i] || c.Body[i].Kind == ItemRel {
					continue
				}
				if slotsSubset(reqs[i], bound) {
					schedule(i)
					changed = true
				}
			}
		}
	}
	flush()
	if delta >= 0 {
		// Seed from the delta literal: its [Last, Now) range is the
		// version's smallest scan.
		schedule(delta)
		flush()
	} else if c.SeedPos >= 0 && !scheduled[c.SeedPos] {
		// Full-extent version: seed from the magic literal, which carries
		// the query form's inferred call bindings (flow analysis) — the
		// bound positions it binds make every later scan indexed.
		schedule(c.SeedPos)
		flush()
	}
	for {
		best, bestCost := -1, 0.0
		for i := range c.Body {
			if scheduled[i] || c.Body[i].Kind != ItemRel {
				continue
			}
			cost := estCost(&c.Body[i], stats[i], bound)
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			break
		}
		schedule(best)
		flush()
	}
	if len(order) < n || modeChanged {
		// Some requirement never became satisfiable, or a numeric "=" would
		// run in another mode: keep the written order (which passed the
		// same requirements check above only via call-order effects the
		// greedy pass did not reproduce).
		return c
	}
	identity := true
	for i, oi := range order {
		if oi != i {
			identity = false
			break
		}
	}
	written := make([]int, n)
	for i := range written {
		written[i] = i
	}
	if identity || orderCost(c, order, stats)*planGainMargin >= orderCost(c, written, stats) {
		return c
	}
	return me.prog.planned(c, order)
}

// orderCost estimates the tuples a schedule considers end to end: walking
// the order, each relation item is priced at its estimated matches given
// the bindings accumulated so far (estCost), multiplied by the estimated
// number of partial bindings reaching it; non-relation items cost one test
// per reaching binding. The flow into the next position is the product of
// match estimates, floored at one (a join that narrows below a single
// binding still iterates).
func orderCost(c *Compiled, order []int, stats []relation.Stats) float64 {
	bound := make(map[int]bool)
	size := 1.0
	work := 0.0
	for _, oi := range order {
		it := &c.Body[oi]
		if it.Kind == ItemRel {
			scan := estCost(it, stats[oi], bound)
			work += size * (1 + scan)
			size *= scan
			if size < 1 {
				size = 1
			}
		} else {
			work += size
		}
		bindSlots(it, bound)
	}
	return work
}

// estCost prices scanning one relation item given the bound slots: its row
// count divided by the distinct-value count of every argument position
// that is fully bound (ground arguments included — they select too).
func estCost(it *CItem, st relation.Stats, bound map[int]bool) float64 {
	rows := st.Rows
	if rows < 1 {
		rows = 1
	}
	cost := float64(rows)
	for pos, a := range it.Args {
		if !coveredBy(a, bound) {
			continue
		}
		d := 0
		if pos < len(st.Distinct) {
			d = st.Distinct[pos]
		}
		if d <= 0 {
			d = defaultDistinct
		}
		cost /= float64(d)
	}
	return cost
}

// slotsOf collects the env slots of an argument list.
func slotsOf(args []term.Term) map[int]bool {
	s := make(map[int]bool)
	for _, a := range args {
		addSlots(a, s)
	}
	return s
}

// slotsSubset reports whether every slot of req is bound.
func slotsSubset(req, bound map[int]bool) bool {
	for k := range req {
		if !bound[k] {
			return false
		}
	}
	return true
}

// bindSlots adds the slots an item binds when it succeeds: every variable
// of a positive relation literal; for "=", one side's variables when the
// other side is already covered (unification grounds across, but a
// both-sides-free "=" only aliases and grounds nothing).
func bindSlots(it *CItem, bound map[int]bool) {
	switch {
	case it.Kind == ItemRel:
		for _, a := range it.Args {
			addSlots(a, bound)
		}
	case it.Kind == ItemBuiltin && it.Op == "=" && len(it.Args) == 2:
		left, right := it.Args[0], it.Args[1]
		if coveredBy(left, bound) {
			addSlots(right, bound)
		} else if coveredBy(right, bound) {
			addSlots(left, bound)
		}
	}
}

// isArithTerm mirrors the evaluator's arithmetic shape test (builtins.go):
// an interpreted function symbol at the root makes a "=" side evaluable.
func isArithTerm(t term.Term) bool {
	f, ok := t.(*term.Functor)
	return ok && arithOps[f.Sym] && len(f.Args) >= 1 && len(f.Args) <= 2
}

// numericEq reports whether it is a "=" both of whose sides may evaluate
// to numbers at run time — a variable, a number, or an arithmetic shape —
// so that its outcome depends on which sides are bound.
func numericEq(it *CItem) bool {
	if it.Kind != ItemBuiltin || it.Op != "=" || len(it.Args) != 2 {
		return false
	}
	for _, side := range it.Args {
		switch side.(type) {
		case *term.Var, term.Int, term.Float, term.Big:
		default:
			if !isArithTerm(side) {
				return false
			}
		}
	}
	return true
}

// eqMode records which sides of a "=" are bound: bit 0 left, bit 1 right.
func eqMode(it *CItem, bound map[int]bool) uint8 {
	var m uint8
	for k, side := range it.Args {
		if coveredBy(side, bound) {
			m |= 1 << k
		}
	}
	return m
}

// cmpBuiltins are the operators requiring ground operands at evaluation
// time (evalBuiltin throws otherwise).
var cmpBuiltins = map[string]bool{
	"<": true, ">": true, ">=": true, "=<": true, "==": true, "!=": true,
}

// buildPlanned clones c with its body in schedule order, recomputing the
// order-dependent metadata: BoundPos (index annotations), BacktrackTo
// (intelligent backtracking), RecPositions. OrigPos is preserved from the
// written rule, keeping the semi-naive range discipline intact.
func buildPlanned(c *Compiled, order []int) *Compiled {
	nc := &Compiled{
		HeadPred: c.HeadPred,
		HeadArgs: c.HeadArgs,
		Aggs:     c.Aggs,
		NVars:    c.NVars,
		Line:     c.Line,
		SeedPos:  c.SeedPos,
		HeadSlot: c.HeadSlot,
		Body:     make([]CItem, len(order)),
	}
	boundVars := make(map[int]bool)
	for newPos, oi := range order {
		item := c.Body[oi] // copy; OrigPos stays the written position
		if item.Kind == ItemRel || item.Kind == ItemNegRel {
			item.BoundPos = nil
			for pos, a := range item.Args {
				if coveredBy(a, boundVars) {
					item.BoundPos = append(item.BoundPos, pos)
				}
			}
		}
		nc.Body[newPos] = item
		// Same static convention as CompileRule: relation literals and
		// "=" bind their variables for BoundPos purposes.
		if item.Kind == ItemRel || (item.Kind == ItemBuiltin && item.Op == "=") {
			for _, a := range item.Args {
				addSlots(a, boundVars)
			}
		}
	}
	computeBacktrackPoints(nc)
	for i, it := range nc.Body {
		if it.Kind == ItemRel && it.Recursive {
			nc.RecPositions = append(nc.RecPositions, i)
		}
	}
	return nc
}

// ensurePlanIndexes creates the argument-form indexes a fitted schedule
// probes: one per relation item on the positions bound when the join reaches
// it (idempotent; MakeIndex is a no-op on an existing index), on the sources
// bodyStats resolved for the fit. Index creation mutates the relation, so
// this runs — like planFor itself — only on the writer goroutine, before any
// parallel workers start.
func (me *matEval) ensurePlanIndexes(p *cachedPlan) {
	if me.prog != nil && me.prog.Ann.NoIndexing {
		return
	}
	for i := range p.planned.Body {
		it := &p.planned.Body[i]
		if it.Kind != ItemRel || len(it.BoundPos) == 0 {
			continue
		}
		if me.sharedRO {
			// A concurrent read-only evaluation owns only its derived
			// relations; creating an index on a shared base relation would
			// race with other sessions' reads of the same relation.
			if _, owned := me.st.local[it.Pred]; !owned {
				continue
			}
		}
		// hashRelOfWritable, not hashRelOf: a snapshot view's Prefix
		// sources must never be unwrapped for a write, and the restricted
		// accessor makes that structural rather than a property of the
		// sharedRO gate above.
		if hr := hashRelOfWritable(p.srcs[it.OrigPos]); hr != nil && !hr.HasIndex(it.BoundPos...) {
			if hr.MakeIndex(it.BoundPos...) == nil {
				me.ev.IndexBuilds++
			}
		}
	}
}

// hashRelOfWritable is hashRelOf restricted to relations this evaluation
// may mutate: it has no *relation.Prefix case, so index creation and any
// other write can never reach the relation underneath a snapshot view, no
// matter what dynamic gates surround the call site. Prefix-backed sources
// serve reads only (statistics, scans) through hashRelOf.
func hashRelOfWritable(src Source) *relation.HashRelation {
	switch s := src.(type) {
	case *relation.HashRelation:
		return s
	case relSource:
		hr, _ := s.r.(*relation.HashRelation)
		return hr
	}
	return nil
}
