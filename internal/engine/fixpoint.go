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

	// lastMarks[rule][pred] is the mark up to which this rule has consumed
	// the predicate's relation (general semi-naive bookkeeping).
	lastMarks map[*Compiled]map[ast.PredKey]relation.Mark

	ctx      *osContext // Ordered Search context; nil otherwise
	exitDone map[*Stratum]bool

	// The path flags below (and ev.bytecode) are set in one place,
	// ModuleDef.configureEval, and only read elsewhere. Their zero values are
	// the reference evaluator: written order, index lookups, the
	// interpreter, one worker, no static estimates.

	// parallelism is the worker budget for BSN rounds (<= 1: sequential);
	// parSafe caches the per-stratum parallel-safety analysis (parallel.go).
	parallelism int
	parSafe     map[*Stratum]bool

	// planning runs rule versions on the cost-based join planner's schedule
	// (plan.go), hash build/probe marks included (hashjoin.go); plans caches
	// fitted schedules per rule version.
	planning bool
	plans    map[planKey]*cachedPlan

	// seed supplies static cardinality estimates where live statistics are
	// absent or cold, and the round-bound hint for iteration-budget aborts
	// (cardseed.go). Every method is nil-safe.
	seed *staticSeeder

	// sharedRO marks an evaluation running concurrently with others over
	// the same System (callCfg.sharedRO): it must not mutate shared
	// structures, so plan-driven index creation is confined to the
	// evaluation's own derived relations (ensurePlanIndexes).
	sharedRO bool

	// guard enforces the call's context and Budget (budget.go). Embedded
	// by value so an unbudgeted call allocates nothing extra; setGuard
	// refreshes it per call (save-module evaluations get a fresh deadline
	// each call).
	guard budgetGuard

	// Iterations counts fixpoint iterations (reported by benchmarks).
	Iterations int
	// ParRounds counts the BSN rounds that actually ran on the worker pool.
	ParRounds int
	err       error
}

func newMatEval(prog *Program, external func(ast.PredKey) (Source, error)) *matEval {
	me := &matEval{
		prog:      prog,
		lastMarks: make(map[*Compiled]map[ast.PredKey]relation.Mark),
	}
	me.st = newStore(external, prog.configureRelation)
	me.st.isLocal = func(k ast.PredKey) bool { return prog.LocalPreds[k] }
	me.ev = &evaluator{st: me.st, IntelligentBacktracking: !prog.Ann.ChronologicalBacktracking}
	if prog.OrderedSearch {
		me.ctx = newOSContext(me)
	}
	return me
}

// Err returns the evaluation error, if any.
func (me *matEval) Err() error { return me.err }

// counters reports the evaluation's engine counters as RunStats (Answers is
// the scan's business and stays zero). Saved evaluations accumulate across
// calls; callers wanting one call's contribution subtract a before-snapshot.
func (me *matEval) counters() RunStats {
	st := RunStats{
		Derivations:    me.ev.Derivations,
		Attempts:       me.ev.Attempts,
		Iterations:     me.Iterations,
		ParallelRounds: me.ParRounds,
		HashJoinBuilds: me.ev.HashBuilds,
		HashJoinProbes: me.ev.HashProbes,
		BytecodeRuns:   me.ev.BCRuns,
	}
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
		var ab *AbortError
		if errors.As(err, &ab) && ab.Stats == (RunStats{}) {
			ab.Stats.Derivations = me.ev.Derivations
			ab.Stats.Attempts = me.ev.Attempts
			ab.Stats.Iterations = me.Iterations
			ab.Stats.ParallelRounds = me.ParRounds
			for _, rel := range me.st.local {
				ab.Stats.FactsStored += rel.Len()
			}
		}
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
// consult for rules deriving pred, or nil when skipping duplicate emits
// could be observed: Ordered Search defers availability to the context,
// tracing records one justification per derivation, and multisets admit
// duplicates.
func (me *matEval) dupRel(pred ast.PredKey) *relation.HashRelation {
	if me.ctx != nil || me.ev.trace != nil {
		return nil
	}
	if hr := me.st.rel(pred); hr != nil && !hr.Multiset {
		return hr
	}
	return nil
}

// currentCaller identifies the subgoal whose rule instantiation is emitting
// right now: under plain magic every rewritten rule's first relation item
// is its head's guard magic literal.
func (me *matEval) currentCaller() *subgoal {
	c, env := me.ev.curRule, me.ev.curEnv
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
	st := me.prog.Strata[me.stratumIdx]
	if !me.initialized {
		me.initStratum(st)
		if !st.Recursive {
			// A non-recursive stratum is complete after its single pass.
			me.advanceStratum()
			return
		}
		me.initialized = true
		return
	}
	var grew bool
	if me.prog.Naive {
		grew = me.naiveIteration(st)
	} else if me.prog.PSN {
		grew = me.psnIteration(st)
	} else {
		grew = me.bsnIteration(st)
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

// initStratum runs the exit rules and aggregate rules once. Their body
// predicates lie in lower strata (complete by now) or outside the module.
// Under save-module the exit rules run only on the first call: their bodies
// read nothing that grows between calls, so re-running could only rederive.
func (me *matEval) initStratum(st *Stratum) {
	if me.exitDone == nil {
		me.exitDone = make(map[*Stratum]bool)
	}
	if me.exitDone[st] {
		return
	}
	me.exitDone[st] = true
	heads := me.headMarks(st.ExitRules, st.AggRules)
	emitFor := func(c *Compiled) emitFunc {
		return func(f Fact) bool { me.insert(c.HeadPred, f); return true }
	}
	for _, c := range st.ExitRules {
		me.ev.headDup = me.dupRel(c.HeadPred)
		err := me.ev.evalRule(me.planFor(c, -1), fullRanges, emitFor(c))
		me.ev.headDup = nil
		if err != nil {
			me.rollbackTo(heads)
			me.fail(err)
			return
		}
	}
	for _, c := range st.AggRules {
		if err := me.evalAggRule(c); err != nil {
			me.rollbackTo(heads)
			me.fail(err)
			return
		}
	}
}

// headMarks snapshots the head relations of the given rule sets at a round
// boundary; rollbackTo undoes the round's inserts on a failed round. It is
// computed whether or not a budget is in force, so budgeted and unbudgeted
// runs allocate identically (the E18 overhead criterion).
func (me *matEval) headMarks(ruleSets ...[]*Compiled) map[ast.PredKey]relation.Mark {
	marks := make(map[ast.PredKey]relation.Mark)
	for _, rules := range ruleSets {
		for _, c := range rules {
			if _, ok := marks[c.HeadPred]; !ok {
				marks[c.HeadPred] = me.st.rel(c.HeadPred).Snapshot()
			}
		}
	}
	return marks
}

// rollbackTo truncates each head relation to its round-start mark, making a
// failed or aborted round atomic: a later reader (a lazy answer scan, a
// follow-up call on a save-module) never observes a torn round. Relations
// under aggregate selections are skipped — a displacing insert tombstones
// the displaced fact, and truncation cannot resurrect it (see
// relation.TruncateTo); their evaluations are invalidated wholesale instead
// (ModuleDef.Call drops aborted save-module state).
func (me *matEval) rollbackTo(marks map[ast.PredKey]relation.Mark) {
	for pred, mk := range marks {
		r := me.st.rel(pred)
		if len(r.AggSels()) > 0 {
			continue
		}
		r.TruncateTo(mk)
	}
}

// marksFor returns (and lazily creates) the per-rule consumption marks.
func (me *matEval) marksFor(c *Compiled) map[ast.PredKey]relation.Mark {
	m, ok := me.lastMarks[c]
	if !ok {
		m = make(map[ast.PredKey]relation.Mark)
		me.lastMarks[c] = m
	}
	return m
}

// snapshotNow captures current marks for the recursive predicates of rule c.
func (me *matEval) snapshotNow(c *Compiled) map[ast.PredKey]relation.Mark {
	now := make(map[ast.PredKey]relation.Mark)
	for _, pos := range c.RecPositions {
		pred := c.Body[pos].Pred
		if _, ok := now[pred]; !ok {
			now[pred] = me.st.rel(pred).Snapshot()
		}
	}
	return now
}

// planVersions fits the plan of every delta version of the given rules, in
// (rule, RecPositions) order.
func (me *matEval) planVersions(rules ...*Compiled) []*Compiled {
	n := 0
	for _, c := range rules {
		n += len(c.RecPositions)
	}
	planned := make([]*Compiled, 0, n)
	for _, c := range rules {
		for _, pos := range c.RecPositions {
			planned = append(planned, me.planFor(c, pos))
		}
	}
	return planned
}

// applyRecursive runs all delta versions of rule c — planned holds their
// fitted plans (planVersions) — using its stored marks and the supplied
// now-snapshot, then advances the marks.
func (me *matEval) applyRecursive(c *Compiled, now map[ast.PredKey]relation.Mark, planned []*Compiled) error {
	last := me.marksFor(c)
	// Complete the last map for predicates this rule reads.
	for _, pos := range c.RecPositions {
		pred := c.Body[pos].Pred
		if _, ok := last[pred]; !ok {
			last[pred] = 0
		}
	}
	emit := func(f Fact) bool {
		me.insert(c.HeadPred, f)
		return true
	}
	me.ev.headDup = me.dupRel(c.HeadPred)
	for i, pos := range c.RecPositions {
		rr := ruleRanges{DeltaPos: pos, Last: last, Now: now}
		if err := me.ev.evalRule(planned[i], rr, emit); err != nil {
			me.ev.headDup = nil
			return err
		}
	}
	me.ev.headDup = nil
	for pred, mk := range now {
		last[pred] = mk
	}
	return nil
}

// bsnIteration is one Basic Semi-Naive round: all rules see the same
// snapshot taken at the start of the round (paper §4.2, §5.3). When the
// stratum passes the parallel-safety analysis the round runs on the worker
// pool instead (parallel.go); both paths produce identical relations.
func (me *matEval) bsnIteration(st *Stratum) bool {
	if w := me.workersFor(st); w > 1 {
		return me.bsnParallel(st, w)
	}
	now := make(map[ast.PredKey]relation.Mark)
	for _, c := range st.RecRules {
		for _, pos := range c.RecPositions {
			pred := c.Body[pos].Pred
			if _, ok := now[pred]; !ok {
				now[pred] = me.st.rel(pred).Snapshot()
			}
		}
	}
	// Every version is planned against the round-start statistics, before
	// any rule inserts — as the parallel round plans them — so one worker
	// and many run the same schedules and emit in the same order.
	planned := me.planVersions(st.RecRules...)
	heads := me.headMarks(st.RecRules)
	before := me.totalFacts(st)
	for _, c := range st.RecRules {
		ruleNow := make(map[ast.PredKey]relation.Mark)
		for _, pos := range c.RecPositions {
			ruleNow[c.Body[pos].Pred] = now[c.Body[pos].Pred]
		}
		versions := planned[:len(c.RecPositions)]
		planned = planned[len(c.RecPositions):]
		if err := me.applyRecursive(c, ruleNow, versions); err != nil {
			me.rollbackTo(heads)
			me.fail(err)
			return false
		}
	}
	return me.totalFacts(st) > before
}

// psnIteration is one Predicate Semi-Naive round: predicates are processed
// in order and each rule sees a snapshot taken when its turn comes, so
// facts produced earlier in the same round feed later rules immediately
// (paper §4.2; [22]). This typically reaches the fixpoint in fewer rounds
// for programs with many mutually recursive predicates.
func (me *matEval) psnIteration(st *Stratum) bool {
	heads := me.headMarks(st.RecRules)
	before := me.totalFacts(st)
	for _, pred := range st.Preds {
		for _, c := range st.RecRules {
			if c.HeadPred != pred {
				continue
			}
			if err := me.applyRecursive(c, me.snapshotNow(c), me.planVersions(c)); err != nil {
				me.rollbackTo(heads)
				me.fail(err)
				return false
			}
		}
	}
	return me.totalFacts(st) > before
}

// naiveIteration applies every rule against full extents — the baseline
// semi-naive is measured against (experiment E01). Duplicate checking in
// the relations provides termination.
func (me *matEval) naiveIteration(st *Stratum) bool {
	heads := me.headMarks(st.RecRules)
	before := me.totalFacts(st)
	emitFor := func(c *Compiled) emitFunc {
		return func(f Fact) bool { me.insert(c.HeadPred, f); return true }
	}
	for _, c := range st.RecRules {
		me.ev.headDup = me.dupRel(c.HeadPred)
		err := me.ev.evalRule(me.planFor(c, -1), fullRanges, emitFor(c))
		me.ev.headDup = nil
		if err != nil {
			me.rollbackTo(heads)
			me.fail(err)
			return false
		}
	}
	return me.totalFacts(st) > before
}

// totalFacts sums the stratum's relation sizes (including attempts-based
// growth via tombstoned aggregate selections: Snapshot grows on every
// accepted insert even if a later one deletes it).
func (me *matEval) totalFacts(st *Stratum) int {
	total := 0
	for _, pred := range st.Preds {
		total += int(me.st.rel(pred).Snapshot())
	}
	return total
}
