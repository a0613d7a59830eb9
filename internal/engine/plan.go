package engine

import (
	"coral/internal/ast"
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
// variables are bound would change answers). Pure structural "=" commutes
// with the join and is scheduled as early as possible. Semi-naive scan
// ranges are assigned by written occurrence (CItem.OrigPos), so any
// permutation reads exactly the ranges the written rule would.
//
// Plans are cached per (rule, delta position) and re-fitted when the
// cardinality of any body relation has drifted past a threshold since the
// fit — across semi-naive rounds that keeps re-planning cheap while
// tracking the shrinking deltas. BoundPos and BacktrackTo are recomputed
// for the schedule, and missing argument-form indexes for the newly bound
// positions are created (idempotently) so lookups follow the plan.

// planKey identifies one cached plan: a compiled rule version.
type planKey struct {
	c     *Compiled
	delta int // ruleRanges.DeltaPos of the version; -1 for full extents
}

// cachedPlan is a fitted schedule plus the cardinalities it was fitted at.
type cachedPlan struct {
	planned *Compiled // scheduled clone (the original rule when identity)
	fitRows []int     // rows per body item at fit time; -1 for non-relation items
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
	// Hash-join adoption (hashjoin.go): a non-leading relation item is
	// served from a transient build table when the flow of partial bindings
	// reaching it is large enough to amortize the build. With at least
	// hashMinProbes expected probes, the table is adopted when the probe
	// work saved (hashProbeGain per probe, against a per-probe index lookup
	// that allocates an iterator and binary-searches postings) covers the
	// build cost (hashBuildPerRow per row of the item's scan range).
	hashMinProbes   = 8
	hashBuildPerRow = 0.5
	hashProbeGain   = 1.0
)

// planFor returns the rule to evaluate for version (c, delta): a planned
// clone, or c itself when the evaluation keeps the written order
// (configureEval), or planning is unsafe or a no-op. planFor must be called
// from the evaluation's writer goroutine — it may create relations, indexes,
// and cache entries.
func (me *matEval) planFor(c *Compiled, delta int) *Compiled {
	if !me.planning || len(c.Body) < 2 {
		return c
	}
	key := planKey{c: c, delta: delta}
	stats, rows := me.bodyStats(c)
	if p, ok := me.plans[key]; ok && !drifted(p.fitRows, rows) {
		return p.planned
	}
	planned := me.fitPlan(c, delta, stats)
	if me.plans == nil {
		me.plans = make(map[planKey]*cachedPlan)
	}
	me.plans[key] = &cachedPlan{planned: planned, fitRows: rows}
	return planned
}

// bodyStats resolves the statistics of every body relation item. The
// second result isolates the row counts for drift checks (-1 marks
// non-relation items and unknown sources).
func (me *matEval) bodyStats(c *Compiled) ([]relation.Stats, []int) {
	stats := make([]relation.Stats, len(c.Body))
	rows := make([]int, len(c.Body))
	for i := range c.Body {
		rows[i] = -1
		it := &c.Body[i]
		if it.Kind == ItemBuiltin {
			continue
		}
		if st, ok := me.statsFor(it.Pred); ok {
			rows[i] = st.Rows // drift tracks the live count, not the prior
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
	return stats, rows
}

// statsFor fetches planner statistics for a predicate's source; ok is
// false for sources that keep no statistics.
func (me *matEval) statsFor(pred ast.PredKey) (relation.Stats, bool) {
	src, err := me.st.source(pred)
	if err != nil {
		return relation.Stats{}, false // let evaluation surface the error
	}
	switch s := src.(type) {
	case *relation.HashRelation:
		return s.Stats(), true
	case *relation.Prefix:
		// A snapshot view prices joins from the live statistics of its
		// underlying relation (reads are clamped to the captured mark, but
		// the live counts are the better-maintained estimate and appends
		// during serving are fenced anyway).
		return s.Rel().Stats(), true
	case relSource:
		if hr, ok := s.r.(*relation.HashRelation); ok {
			return hr.Stats(), true
		}
	}
	return relation.Stats{}, false
}

// drifted reports whether current row counts have moved past the
// invalidation threshold relative to the fit-time counts.
func drifted(fit, cur []int) bool {
	for i := range fit {
		if fit[i] < 0 || cur[i] < 0 {
			continue
		}
		lo, hi := fit[i], cur[i]
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
// unchanged when the rule cannot be reordered safely or the schedule is
// the written order.
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
	for i := range c.Body {
		if !slotsSubset(reqs[i], bound) {
			return c
		}
		bindSlots(&c.Body[i], bound)
	}

	scheduled := make([]bool, n)
	order := make([]int, 0, n)
	bound = make(map[int]bool)
	schedule := func(i int) {
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
	if len(order) < n {
		// Some requirement never became satisfiable: keep the written
		// order (which passed the same requirements check above only via
		// call-order effects the greedy pass did not reproduce).
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
	reordered := !identity &&
		orderCost(c, order, stats)*planGainMargin < orderCost(c, written, stats)
	sched := written
	if reordered {
		sched = order
	}
	// Build the scheduled clone even for the written order: hash marks go on
	// the clone, never on the shared compiled rule, so each cached version
	// keys the engine's build-table cache with its own item identities.
	nc := buildPlanned(c, sched)
	if !me.markHashItems(nc, sched, stats) && !reordered {
		return c // no reorder and no hash marks: the written rule serves as-is
	}
	me.ensurePlanIndexes(nc)
	return nc
}

// markHashItems walks the schedule the way orderCost does — tracking the
// estimated flow of partial bindings into each position — and marks every
// relation item for which a build table beats per-probe lookups
// (hashEligible). The leading relation item is never marked: nothing is
// bound when it is reached, and the parallel round partitions work by
// splitting exactly that item's ordinal range (splitVersion). Reports
// whether any item was marked.
func (me *matEval) markHashItems(nc *Compiled, sched []int, stats []relation.Stats) bool {
	marked := false
	bound := make(map[int]bool)
	size := 1.0
	firstRel := true
	for i := range nc.Body {
		it := &nc.Body[i]
		if it.Kind != ItemRel {
			bindSlots(it, bound)
			continue
		}
		st := stats[sched[i]]
		if !firstRel && me.hashEligible(it, st, size) {
			it.HashKeyPos = append([]int(nil), it.BoundPos...)
			marked = true
		}
		firstRel = false
		scan := estCost(it, st, bound)
		size *= scan
		if size < 1 {
			size = 1
		}
		bindSlots(it, bound)
	}
	return marked
}

// hashEligible decides hash-join access for one scheduled item reached by
// an estimated probes-many partial bindings. The source must be a plain
// hash relation — and one without aggregate selections: a displacing insert
// tombstones mid-round, which nested-loops scans observe at Next time but a
// table built earlier would not. At least one bound position is required
// (the build key), and the probe volume must amortize the build (see the
// hashMinProbes/hashBuildPerRow/hashProbeGain constants).
func (me *matEval) hashEligible(it *CItem, st relation.Stats, probes float64) bool {
	if len(it.BoundPos) == 0 {
		return false
	}
	src, err := me.st.source(it.Pred)
	if err != nil {
		return false
	}
	hr := hashRelOf(src)
	if hr == nil || len(hr.AggSels()) > 0 {
		return false
	}
	return probes >= hashMinProbes && probes*hashProbeGain >= float64(st.Rows)*hashBuildPerRow
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

// ensurePlanIndexes creates the argument-form indexes the planned schedule
// wants (idempotent; MakeIndex is a no-op on an existing index). Index
// creation mutates the relation, so this runs — like planFor itself — only
// on the writer goroutine, before any parallel workers start.
func (me *matEval) ensurePlanIndexes(c *Compiled) {
	if me.prog != nil && me.prog.Ann.NoIndexing {
		return
	}
	for i := range c.Body {
		it := &c.Body[i]
		if it.Kind != ItemRel || len(it.BoundPos) == 0 {
			continue
		}
		if it.HashKeyPos != nil {
			// Hash-marked items are served by transient build tables;
			// skipping the persistent index (and its per-insert maintenance
			// from here on) is part of the hash join's win.
			continue
		}
		src, err := me.st.source(it.Pred)
		if err != nil {
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
		if hr := hashRelOfWritable(src); hr != nil {
			_ = hr.MakeIndex(it.BoundPos...)
		}
	}
}
