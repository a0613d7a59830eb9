package engine

import (
	"errors"
	"fmt"
	"math"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// matEval is one materialized evaluation of a program: the store of derived
// relations plus resumable fixpoint state. The state machine makes lazy
// evaluation (paper §5.4.3) natural: the answer scan calls step() until new
// answers appear, "reactivating the frozen computation" — here, simply
// resuming the state machine.
//
// With save-module (paper §5.4.2) the same matEval persists across calls;
// per-rule marks guarantee no derivation is repeated across calls.
type matEval struct {
	prog *Program
	st   *store
	ev   *evaluator

	stratumIdx  int
	initialized bool
	finished    bool
	inStep      bool

	// scheds[i] is stratum i's round schedule — resolved relations, rule
	// versions, per-rule consumption marks (general semi-naive bookkeeping) —
	// built when the stratum is first entered (sched).
	scheds []*roundSched

	ctx *osContext // Ordered Search context; nil otherwise

	// The path flags below (and ev.bytecode) are set in one place,
	// ModuleDef.configureEval, and only read elsewhere. Their zero values are
	// the reference evaluator: written order, index lookups, the
	// environment store, one worker, no static estimates.

	// parallelism is the worker budget for BSN rounds (<= 1: sequential).
	parallelism int

	// planning runs rule versions on the cost-based join planner's schedule
	// (plan.go), with the indexes each schedule probes; plans caches fitted
	// schedules per rule version.
	planning bool
	plans    map[planKey]*cachedPlan

	// seed supplies static cardinality estimates where live statistics are
	// absent or cold, and the round-bound hint for iteration-budget aborts
	// (cardseed.go). Every method is nil-safe.
	seed *staticSeeder

	// sharedRO marks an evaluation under a session's read-only view, running
	// concurrently with others over the same System: it must not mutate shared
	// structures, so plan-driven index creation is confined to the
	// evaluation's own derived relations (ensurePlanIndexes).
	sharedRO bool

	// guard enforces the call's context and Budget (budget.go). Embedded
	// by value so an unbudgeted call allocates nothing extra; setGuard
	// refreshes it per call (save-module evaluations get a fresh deadline
	// each call).
	guard budgetGuard

	// inputs are the base relations a save-module evaluation read, itself
	// or behind the exports it calls, as of its last call (noteInputs);
	// callSaved discards the state once one of them has moved.
	inputs []inputMark

	// Iterations counts fixpoint iterations (reported by benchmarks).
	Iterations int
	// ParRounds counts the BSN rounds that actually ran on the worker pool.
	ParRounds int
	err       error
}

func newMatEval(prog *Program, external func(ast.PredKey) (Source, error)) *matEval {
	me := &matEval{prog: prog, scheds: make([]*roundSched, len(prog.Strata))}
	me.st = newStore(external, prog.configureRelation)
	me.st.isLocal = func(k ast.PredKey) bool { return prog.LocalPreds[k] }
	me.ev = &evaluator{evalConfig: evalConfig{st: me.st, IntelligentBacktracking: !prog.Ann.ChronologicalBacktracking}}
	if prog.OrderedSearch {
		me.ctx = newOSContext(me)
	}
	return me
}

// inputMark is one base relation a saved evaluation read: its live count
// and destructive-mutation counter when the evaluation last ran.
type inputMark struct {
	r          *relation.HashRelation
	live, muts int
}

// noteInputs records, as they are now, the base relations def's rules read
// — positively or under "not" — and, transitively, those behind the exports
// they call (the walk staticOracle makes, with a visited set). A computed or
// persistent relation has no counters to compare: it counts as always moved.
func (me *matEval) noteInputs(def *ModuleDef, visited map[*ModuleDef]bool) {
	visited[def] = true
	local := make(map[ast.PredKey]bool)
	for _, r := range def.Src.Rules {
		local[r.Head.Key()] = true
	}
	for _, r := range def.Src.Rules {
		for _, l := range r.Body {
			if key := l.Key(); l.Builtin() || local[key] {
				continue
			} else if rel, ok := def.sys.Relation(key); ok {
				var in inputMark // r nil: always moved
				if hr, isHash := rel.(*relation.HashRelation); isHash {
					in = inputMark{hr, hr.Len(), hr.Mutations()}
				}
				me.inputs = append(me.inputs, in)
			} else if callee, ok := def.sys.Export(key); ok && !visited[callee] {
				me.noteInputs(callee, visited)
			}
		}
	}
}

// inputsMoved reports whether a relation noteInputs recorded has gained or
// lost facts since.
func (me *matEval) inputsMoved() bool {
	for _, in := range me.inputs {
		if in.r == nil || in.r.Len() != in.live || in.r.Mutations() != in.muts {
			return true
		}
	}
	return false
}

// Err returns the evaluation error, if any.
func (me *matEval) Err() error { return me.err }

// runStats reports the evaluation's engine counters as RunStats (Answers is
// the scan's business and stays zero). Saved evaluations accumulate across
// calls; callers wanting one call's contribution subtract a before-snapshot.
func (me *matEval) runStats() RunStats {
	st := me.ev.runStats()
	st.Iterations, st.ParallelRounds = me.Iterations, me.ParRounds
	for _, rel := range me.st.local {
		st.FactsStored += rel.Len()
	}
	return st
}

// setGuard installs the per-call budget guard and points the evaluator's
// amortized poll at it (nil when no bound is in force, so the join loop
// pays a single nil check per tuple).
func (me *matEval) setGuard(g budgetGuard) {
	me.guard = g
	if me.guard.active() {
		me.ev.guard = &me.guard
	} else {
		me.ev.guard = nil
	}
}

// fail records an error and stops the evaluation. A budget abort is
// annotated with the partial RunStats accumulated so far — the "how far did
// it get" report AbortError carries.
func (me *matEval) fail(err error) {
	if me.err == nil {
		noteAbortStats(err, me.runStats())
		me.err = err
	}
	me.finished = true
}

// addSeed inserts the magic seed for a call with the given original-query
// arguments (paper §4.1: the query's bindings become a magic fact). It
// returns false when the program takes no seed (rewriting none).
func (me *matEval) addSeed(args []term.Term, env *term.Env) bool {
	if me.prog.MagicPred.Name == "" {
		return false
	}
	seedArgs := make([]term.Term, len(me.prog.SeedPositions))
	for i, pos := range me.prog.SeedPositions {
		seedArgs[i] = args[pos]
	}
	f := relation.NewFact(seedArgs, env)
	if me.ctx != nil {
		me.ctx.offer(me.prog.MagicPred, f, nil)
	} else if !me.insert(me.prog.MagicPred, f) {
		return true // duplicate seed: answers already computed (save mode)
	}
	// New work may exist even in previously finished evaluations.
	if me.finished && me.err == nil {
		me.finished = false
		me.stratumIdx = 0
		me.initialized = false
	}
	return true
}

// insert adds a derived fact, routing Ordered Search magic facts through
// the context together with the calling subgoal (the guard magic fact of
// the deriving rule instantiation).
func (me *matEval) insert(pred ast.PredKey, f Fact) bool {
	if me.ctx != nil && me.prog.MagicPreds[pred] {
		me.ctx.offer(pred, f, me.currentCaller())
		return false // availability is deferred to the context
	}
	if !me.st.rel(pred).Insert(f) {
		return false
	}
	// Charge the fact budget for the accepted insert. A trip throws through
	// the panic channel; every path into insert is recovered (evalRule,
	// evalAggRule, ModuleDef.Call).
	me.guard.noteFact()
	return true
}

// dupRel returns the relation the evaluator's duplicate probe should
// consult for rules deriving into head, or nil when skipping duplicate emits
// could be observed: Ordered Search defers availability to the context,
// tracing records one justification per derivation, and multisets admit
// duplicates.
func (me *matEval) dupRel(head *relation.HashRelation) *relation.HashRelation {
	if me.ctx != nil || me.ev.trace != nil || head.Multiset {
		return nil
	}
	return head
}

// currentCaller identifies the subgoal whose rule instantiation is emitting
// right now: under plain magic every rewritten rule's first relation item
// is its head's guard magic literal.
func (me *matEval) currentCaller() *subgoal {
	c, env := me.ev.envs.c, me.ev.envs.env
	if c == nil {
		return nil
	}
	for i := range c.Body {
		it := &c.Body[i]
		if it.Kind != ItemRel {
			continue
		}
		if !me.prog.MagicPreds[it.Pred] {
			return nil
		}
		return me.ctx.find(it.Pred, relation.NewFact(it.Args, env))
	}
	return nil
}

// answers returns the relation holding the query predicate's facts.
func (me *matEval) answers() *relation.HashRelation {
	return me.st.rel(me.prog.QueryPred)
}

// run drives the evaluation to completion (eager mode).
func (me *matEval) run() {
	for !me.finished {
		me.step()
	}
}

// step advances the evaluation by one unit: initializing a stratum, running
// one semi-naive iteration, or performing one Ordered Search context
// action. Answer scans call it until new answers appear.
func (me *matEval) step() {
	if me.finished {
		return
	}
	if me.inStep {
		me.fail(fmt.Errorf("engine: module %s invoked recursively during its own evaluation (the save-module restriction, paper §5.4.2)", me.prog.ModName))
		return
	}
	me.inStep = true
	defer func() { me.inStep = false }()

	// Round barrier: the cheapest place to notice cancellation, an expired
	// deadline, or an exhausted iteration budget. Between barriers the join
	// loop polls amortized (every budgetCheckEvery tuples), so a single
	// runaway rule application is bounded too.
	if err := me.guard.checkRound(me.Iterations); err != nil {
		me.fail(me.annotateAbort(err))
		return
	}

	if me.ctx != nil {
		me.osStep()
		return
	}
	if me.stratumIdx >= len(me.prog.Strata) {
		me.finished = true
		return
	}
	rs := me.sched()
	if !me.initialized {
		me.initStratum(rs)
		if !rs.st.Recursive {
			// A non-recursive stratum is complete after its single pass.
			me.advanceStratum()
			return
		}
		me.initialized = true
		return
	}
	var grew bool
	if me.prog.Naive {
		grew = me.naiveIteration(rs)
	} else if me.prog.PSN {
		grew = me.psnIteration(rs)
	} else {
		grew = me.bsnIteration(rs)
	}
	me.Iterations++
	if !grew {
		me.advanceStratum()
	}
}

// annotateAbort attaches the static round-bound hint to an iteration-budget
// abort: when the analysis proved the fixpoint closes within N rounds, a
// budget trip below that says so ("statically expected ≤ N rounds") —
// usually meaning the budget is simply set too low. Ordered Search
// interleaves subgoals through the context, so its iteration count is not
// comparable to the semi-naive round bound and gets no hint.
func (me *matEval) annotateAbort(err error) error {
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Tripped != AbortIterations || ab.Hint != "" || me.ctx != nil {
		return err
	}
	if b := me.seed.iterBound(); !math.IsInf(b, 1) {
		ab.Hint = fmt.Sprintf("statically expected ≤ %.0f rounds", b)
	}
	return err
}

func (me *matEval) advanceStratum() {
	me.stratumIdx++
	me.initialized = false
	if me.stratumIdx >= len(me.prog.Strata) {
		me.finished = true
	}
}

// roundSched is the semi-naive round schedule of one stratum in one
// evaluation: everything a round needs that does not change between rounds,
// resolved once, with the marks in slices laid out like the stratum's
// predicate table (Stratum.Table) instead of maps keyed — and hashed — by
// predicate every round. A round snapshots the table, plans its versions,
// dispatches them (inline or to the worker pool, parallel.go), advances the
// rules' marks, and tests the snapshot for growth.
type roundSched struct {
	st   *Stratum
	rels []*relation.HashRelation // st.Table, resolved in this evaluation's store
	// start is the table's snapshot at the top of the round: the upper end of
	// every BSN delta, the rollback target of a failed round, the mark below
	// which pool workers pre-filter duplicates, and the progress baseline.
	start    []relation.Mark
	turn     []relation.Mark // PSN: the table's snapshot at the current rule's turn
	rules    []schedRule     // st.RecRules
	versions []schedVersion  // rule × delta position, in (rule, RecPositions) order
	exitDone bool            // initStratum has run
	// parChecked/parSafe cache checkParallelSafe: the store's sources cannot
	// change between rounds of one evaluation.
	parChecked, parSafe bool
}

// schedRule is one recursive rule of a schedule.
type schedRule struct {
	c    *Compiled
	vers []schedVersion         // the rule's slice of roundSched.versions
	last []relation.Mark        // how far this rule has consumed each table slot
	dup  *relation.HashRelation // dupRel of the head relation
	emit emitFunc               // inserts a derivation into the head relation
}

// schedVersion is one delta version of a rule: the recursive item written at
// rr.DeltaPos scans [last, now) of table slot slot. plan is the version's
// fitted plan and rr the ranges it runs over, both refreshed at the top of
// each round (BSN) or at the rule's turn (PSN) by planRule.
type schedVersion struct {
	rule *schedRule
	slot int
	plan *Compiled
	rr   ruleRanges
}

// sched returns the current stratum's schedule, building it on first use.
func (me *matEval) sched() *roundSched {
	if rs := me.scheds[me.stratumIdx]; rs != nil {
		return rs
	}
	st := me.prog.Strata[me.stratumIdx]
	np, nv := len(st.Table), 0
	for _, c := range st.RecRules {
		nv += len(c.RecPositions)
	}
	rs := &roundSched{
		st:       st,
		rels:     make([]*relation.HashRelation, np),
		start:    make([]relation.Mark, np),
		rules:    make([]schedRule, len(st.RecRules)),
		versions: make([]schedVersion, 0, nv),
	}
	for i, k := range st.Table {
		rs.rels[i] = me.st.rel(k)
	}
	marks := make([]relation.Mark, len(st.RecRules)*np)
	for i, c := range st.RecRules {
		r := &rs.rules[i]
		*r = schedRule{c: c, last: marks[i*np : (i+1)*np], dup: me.dupRel(rs.rels[c.HeadSlot]), emit: me.emitInto(c)}
		first := len(rs.versions)
		for _, pos := range c.RecPositions {
			rs.versions = append(rs.versions, schedVersion{rule: r, slot: c.Body[pos].Slot,
				rr: ruleRanges{DeltaPos: pos, Last: r.last}})
		}
		r.vers = rs.versions[first:]
	}
	me.scheds[me.stratumIdx] = rs
	return rs
}

// snapshot records the table's marks at a round boundary. It is taken whether
// or not a budget is in force, so budgeted and unbudgeted runs allocate
// identically (the E18 overhead criterion).
func (rs *roundSched) snapshot() {
	for i, r := range rs.rels {
		rs.start[i] = r.Snapshot()
	}
}

// grew reports whether any of the stratum's relations has accepted an insert
// since the snapshot (Snapshot grows on every accepted insert, even one a
// later aggregate selection tombstones).
func (rs *roundSched) grew() bool {
	for i := range rs.st.Preds {
		if rs.rels[i].Snapshot() > rs.start[i] {
			return true
		}
	}
	return false
}

// abortRound fails the evaluation with err after truncating every relation
// of the table to its round-start mark, making a failed or aborted round
// atomic: a later reader (a lazy answer scan, a follow-up call on a
// save-module) never observes a torn round. Relations under aggregate
// selections are skipped — a displacing insert tombstones the displaced fact,
// and truncation cannot resurrect it (see relation.TruncateTo); their
// evaluations are invalidated wholesale instead (ModuleDef.Call drops
// aborted save-module state).
func (me *matEval) abortRound(rs *roundSched, err error) bool {
	for i, r := range rs.rels {
		if len(r.AggSels()) == 0 {
			r.TruncateTo(rs.start[i])
		}
	}
	me.fail(err)
	return false
}

// emitInto returns the emit callback that inserts rule c's derivations.
func (me *matEval) emitInto(c *Compiled) emitFunc {
	return func(f Fact) bool { me.insert(c.HeadPred, f); return true }
}

// evalFull applies rule c against full extents (exit rules, naive rounds).
func (me *matEval) evalFull(rs *roundSched, c *Compiled, emit emitFunc) error {
	plan := me.planFor(c, fullRanges.DeltaPos)
	me.ev.headDup = me.dupRel(rs.rels[c.HeadSlot])
	err := me.ev.evalRule(plan, &fullRanges, emit)
	me.ev.headDup = nil
	return err
}

// initStratum runs the exit rules and aggregate rules once. Their body
// predicates lie in lower strata (complete by now) or outside the module.
// Under save-module the exit rules run only on the first call: their bodies
// read nothing that grows between calls, so re-running could only rederive.
func (me *matEval) initStratum(rs *roundSched) {
	if rs.exitDone {
		return
	}
	rs.exitDone = true
	rs.snapshot()
	for _, c := range rs.st.ExitRules {
		if err := me.evalFull(rs, c, me.emitInto(c)); err != nil {
			me.abortRound(rs, err)
			return
		}
	}
	for _, c := range rs.st.AggRules {
		if err := me.evalAggRule(c); err != nil {
			me.abortRound(rs, err)
			return
		}
	}
}

// planRule is the round prologue for r: every delta version gets the ranges
// it reads — [r.last, now) of its delta slot — and a plan fitted against the
// current statistics.
func (me *matEval) planRule(r *schedRule, now []relation.Mark) {
	for i := range r.vers {
		v := &r.vers[i]
		v.rr.Now = now
		v.plan = me.planFor(r.c, v.rr.DeltaPos)
	}
}

// applyRule runs all delta versions of r on the evaluation's own evaluator,
// inserting as it derives.
func (me *matEval) applyRule(r *schedRule) (err error) {
	me.ev.headDup = r.dup
	for i := 0; i < len(r.vers) && err == nil; i++ {
		err = me.ev.evalRule(r.vers[i].plan, &r.vers[i].rr, r.emit)
	}
	me.ev.headDup = nil
	return err
}

// bsnIteration is one Basic Semi-Naive round: all rules see the same
// snapshot taken at the start of the round (paper §4.2, §5.3). Every version
// is planned against the round-start statistics, before any rule inserts, so
// however the round is dispatched it runs the same schedules and emits in
// the same order. A round whose deltas are large enough to share out runs on
// the worker pool (workersFor, parallel.go), any other inline on this
// goroutine; both produce identical relations.
func (me *matEval) bsnIteration(rs *roundSched) bool {
	rs.snapshot()
	for i := range rs.rules {
		me.planRule(&rs.rules[i], rs.start)
	}
	var err error
	if w := me.workersFor(rs); w > 1 {
		err = me.runPool(rs, w)
	} else {
		for i := 0; i < len(rs.rules) && err == nil; i++ {
			err = me.applyRule(&rs.rules[i])
		}
	}
	if err != nil {
		return me.abortRound(rs, err)
	}
	for i := range rs.rules {
		copy(rs.rules[i].last, rs.start)
	}
	return rs.grew()
}

// psnIteration is one Predicate Semi-Naive round: predicates are processed
// in order and each rule sees a snapshot taken — and a plan fitted — when its
// turn comes, so facts produced earlier in the same round feed later rules
// immediately (paper §4.2; [22]). This typically reaches the fixpoint in
// fewer rounds for programs with many mutually recursive predicates.
func (me *matEval) psnIteration(rs *roundSched) bool {
	rs.snapshot()
	if rs.turn == nil {
		rs.turn = make([]relation.Mark, len(rs.rels))
	}
	for _, pred := range rs.st.Preds {
		for i := range rs.rules {
			r := &rs.rules[i]
			if r.c.HeadPred != pred {
				continue
			}
			for s, rel := range rs.rels {
				rs.turn[s] = rel.Snapshot()
			}
			me.planRule(r, rs.turn)
			if err := me.applyRule(r); err != nil {
				return me.abortRound(rs, err)
			}
			copy(r.last, rs.turn)
		}
	}
	return rs.grew()
}

// naiveIteration applies every rule against full extents — the baseline
// semi-naive is measured against (experiment E01). Duplicate checking in
// the relations provides termination.
func (me *matEval) naiveIteration(rs *roundSched) bool {
	rs.snapshot()
	for i := range rs.rules {
		if err := me.evalFull(rs, rs.rules[i].c, rs.rules[i].emit); err != nil {
			return me.abortRound(rs, err)
		}
	}
	return rs.grew()
}
