package engine

import (
	"coral/internal/relation"
	"coral/internal/term"
)

// The basic join mechanism in CORAL is nested loops with indexing; a trail
// of variable bindings is maintained and used to undo bindings when the
// join considers the next tuple in any loop (paper §5.3).

// ruleRanges configures one semi-naive rule version (paper §5.3): the
// recursive item written at DeltaPos scans [Last, Now) of its relation;
// recursive items written before it scan [0, Last); recursive items written
// after it scan [0, Now). Positions are compared against CItem.OrigPos —
// the discipline is tied to the written occurrence, so it survives the join
// planner's body permutations (plan.go). DeltaPos < 0 evaluates the rule
// against full extents (non-recursive rules, or naive evaluation).
//
// Split, when non-nil, further restricts the relation item at the schedule
// position Split.Pos to the ordinal range [Split.From, Split.To) — the
// parallel round's work partitioning (see parallel.go). The range must be a
// subrange of whatever the discipline above would give that item.
//
// Last and Now are indexed by CItem.Slot, the item's predicate in its
// stratum's predicate table.
type ruleRanges struct {
	DeltaPos int
	Last     []relation.Mark
	Now      []relation.Mark
	Split    *splitRange
}

// splitRange restricts one body position's scan to an ordinal chunk.
type splitRange struct {
	Pos      int
	From, To relation.Mark
}

var fullRanges = ruleRanges{DeltaPos: -1}

// scanBounds returns the ordinal range the semi-naive discipline assigns to
// relation item it under rr, keyed on the written occurrence (OrigPos).
func scanBounds(it *CItem, rr *ruleRanges, src Source) (relation.Mark, relation.Mark) {
	if !it.Recursive || rr.DeltaPos < 0 {
		return 0, src.Snapshot()
	}
	switch {
	case it.OrigPos == rr.DeltaPos:
		return rr.Last[it.Slot], rr.Now[it.Slot]
	case it.OrigPos < rr.DeltaPos:
		return 0, rr.Last[it.Slot]
	default:
		return 0, rr.Now[it.Slot]
	}
}

// bindings is a binding store: where the variable bindings of one rule
// application live while the nested-loops driver (evaluator.run) walks the
// body. The driver owns control — frames, scans, backtracking, counters,
// emission — and asks the store to evaluate one item against the bindings
// made to its left. Every operation at position i first drops whatever was
// bound at i or to its right, and a successful one leaves position i's
// bindings in place for the positions after it.
//
// There are two stores. envStore (below) is the general one: environment
// plus trail, full unification, non-ground facts, any source. The register
// file (bcMachine, bytecode.go) runs rules of the compiled fragment and may
// assume every candidate fact is ground, which bind establishes before
// choosing it.
type bindings interface {
	// builtin evaluates the builtin at position i.
	builtin(i int) bool
	// pattern returns the relation or negation item at i as a lookup
	// pattern under env, with everything bound to its left visible. A
	// negation's pattern must come out ground.
	pattern(i int) ([]term.Term, *term.Env)
	// match unifies candidate f with the relation item at i.
	match(i int, f Fact) bool
	// head returns the head arguments under env.
	head() ([]term.Term, *term.Env)
}

// frame is the driver's state for one nested-loops position.
type frame struct {
	src  Source            // the item's relation, resolved once per application (sourceOf)
	iter relation.Iterator // the open scan; nil between activations
	done bool              // single-shot item (builtin, negation) already satisfied
	any  bool              // this activation yielded at least one tuple
	// cursor serves the position's index lookups (lookup): reset in place,
	// so reopening an indexed scan per outer tuple allocates nothing.
	cursor relation.IndexCursor
}

// envStore is the environment-and-trail binding store (paper §5.3: "a trail
// of variable bindings is maintained and used to undo bindings when the join
// considers the next tuple in any loop"). marks[i] is the trail height
// before position i's bindings; fenvs[i] is the pooled environment position
// i's candidate facts are unified in — reusable because every binding into
// it is trailed.
type envStore struct {
	c     *Compiled
	env   *term.Env
	tr    *term.Trail
	marks []int
	fenvs []*term.Env
}

// load readies the store for one application of c over an empty trail.
func (s *envStore) load(c *Compiled, tr *term.Trail) {
	s.c, s.tr = c, tr
	if s.env == nil {
		s.env = term.NewEnv(c.NVars)
	} else {
		s.env.EnsureSlots(c.NVars)
	}
	for len(s.marks) <= len(c.Body) {
		s.marks = append(s.marks, 0)
		s.fenvs = append(s.fenvs, nil)
	}
}

func (s *envStore) builtin(i int) bool {
	it := &s.c.Body[i]
	s.tr.Undo(s.marks[i])
	// A failed builtin may leave partial bindings (a "=" unifies some
	// subterms before failing); they go with the next operation's undo,
	// which is at this position or one to its left.
	ok := evalBuiltin(it.Op, it.Args, s.env, s.tr)
	s.marks[i+1] = s.tr.Mark()
	return ok
}

func (s *envStore) pattern(i int) ([]term.Term, *term.Env) {
	it := &s.c.Body[i]
	s.tr.Undo(s.marks[i])
	if it.Kind == ItemNegRel {
		for _, a := range it.Args {
			if !term.GroundUnder(a, s.env) {
				throwf("engine: negation on %s with unbound argument %s", it.Pred, a)
			}
		}
		s.marks[i+1] = s.marks[i] // a negation binds nothing
	}
	return it.Args, s.env
}

func (s *envStore) match(i int, f Fact) bool {
	it := &s.c.Body[i]
	s.tr.Undo(s.marks[i])
	if it.ArgsGround && f.NVars == 0 {
		// Ground vs ground: equality, decided on hash-cons identifiers, with
		// no environments touched.
		s.marks[i+1] = s.marks[i]
		return term.EqualArgs(it.Args, f.Args)
	}
	if !term.UnifyArgs(it.Args, s.env, f.Args, factEnv(&s.fenvs[i], f.NVars), s.tr) {
		s.tr.Undo(s.marks[i])
		return false
	}
	s.marks[i+1] = s.tr.Mark()
	return true
}

func (s *envStore) head() ([]term.Term, *term.Env) { return s.c.HeadArgs, s.env }

// factEnv returns an environment for a candidate fact: the shared empty
// environment for ground facts (the common case — never a Bind target), or
// the pooled one grown to the fact's variable count.
func factEnv(pool **term.Env, nvars int) *term.Env {
	if nvars == 0 {
		return term.EmptyEnv()
	}
	if *pool == nil {
		*pool = term.NewEnv(nvars)
	} else {
		(*pool).EnsureSlots(nvars)
	}
	return *pool
}

// evalConfig is what an evaluator is told about its evaluation; a pool
// worker's evaluator is the writer's configuration over fresh state.
type evalConfig struct {
	st *store
	// IntelligentBacktracking enables the precomputed backtrack points
	// (paper §4.2); when false, failures backtrack chronologically.
	IntelligentBacktracking bool
	// trace, when non-nil, records one justification per derived fact for
	// the Explanation tool.
	trace *TraceLog
	// guard, when non-nil, is polled amortized — once per budgetCheckEvery
	// tuples considered — so a long scan notices cancellation and deadlines
	// between round barriers. nil costs one branch per tuple.
	guard *budgetGuard
	// bytecode lets rule versions in the compiled fragment (Compiled.program)
	// bind in the register file (bytecode.go). Whoever sets trace leaves it
	// false (justifications capture live environments), as does Ordered
	// Search (magic-fact attribution reads the live environment mid-emit) —
	// see configureEval.
	bytecode bool
}

// evalCounters is the work an evaluator has done.
type evalCounters struct {
	Derivations int // successful head instantiations
	Attempts    int // tuples considered across all loops
	IndexBuilds int // argument-form indexes the planner created (ensurePlanIndexes)
	IndexProbes int // scans and negation probes served from an index cursor
	BCRuns      int // rule applications bound in the register file
}

func (c *evalCounters) add(o evalCounters) {
	c.Derivations += o.Derivations
	c.Attempts += o.Attempts
	c.IndexBuilds += o.IndexBuilds
	c.IndexProbes += o.IndexProbes
	c.BCRuns += o.BCRuns
}

// runStats reports the counters in RunStats' terms; the fields an evaluator
// does not know (answers, rounds, stored facts) stay zero for the caller.
func (c evalCounters) runStats() RunStats {
	return RunStats{
		Derivations:    c.Derivations,
		Attempts:       c.Attempts,
		HashJoinBuilds: c.IndexBuilds,
		HashJoinProbes: c.IndexProbes,
		BytecodeRuns:   c.BCRuns,
	}
}

// evaluator runs compiled rules against a store.
type evaluator struct {
	evalConfig
	evalCounters
	// Pooled per-application state, reused across evalRule calls: the loop
	// frames, the two binding stores, the trail (the environment store's
	// bindings and the negation probe's) and the negation scratch env. busy
	// marks it in use; a reentrant evalRule (through an emit callback or a
	// source calling back in) runs on a scratch evaluator instead. While emit
	// runs, envs.c and envs.env are the live rule instantiation (nil in the
	// register file's applications); Ordered Search reads them to attribute
	// derived magic facts to their calling subgoal.
	frames []frame
	envs   envStore
	bc     bcMachine
	tr     term.Trail
	negEnv *term.Env
	busy   bool
	// headDup, when non-nil, is the relation the current rule's head facts
	// are inserted into: derivations it already contains are skipped before
	// the head fact is materialized (Insert would reject them as duplicates
	// anyway). Callers set it only when the skip is unobservable — not under
	// Ordered Search (availability is deferred to the context), tracing
	// (justifications are recorded per derivation), or multisets.
	headDup    *relation.HashRelation
	budgetTick int
}

// emitFunc receives each derived head fact; returning false stops the rule
// evaluation early (used by lazy scans and existence checks).
type emitFunc func(Fact) bool

// pollBudget is the amortized in-scan budget check: every budgetCheckEvery
// tuples it consults the guard, which throws an *AbortError through the
// panic channel on a tripped budget (recovered in evalRule).
func (ev *evaluator) pollBudget() {
	if ev.guard != nil {
		ev.tickBudget()
	}
}

// tickBudget is pollBudget's guarded half, out of line so that the nil check
// inlines into the join loop.
func (ev *evaluator) tickBudget() {
	if ev.budgetTick++; ev.budgetTick >= budgetCheckEvery {
		ev.budgetTick = 0
		ev.guard.poll()
	}
}

// evalRule evaluates one rule version, calling emit for every derivation.
func (ev *evaluator) evalRule(c *Compiled, rr *ruleRanges, emit emitFunc) (err error) {
	if ev.busy {
		sub := evaluator{evalConfig: ev.evalConfig, headDup: ev.headDup}
		err = sub.evalRule(c, rr, emit)
		ev.add(sub.evalCounters)
		return err
	}
	ev.busy = true
	func() {
		defer recoverEval(&err)
		for len(ev.frames) < len(c.Body) {
			ev.frames = append(ev.frames, frame{})
		}
		frames := ev.frames[:len(c.Body)]
		ev.run(c, rr, ev.bind(c, rr, frames), frames, 0, emit)
	}()
	// Every binding — including into pooled fact envs — is trailed, so one
	// undo returns all pooled environments to fully unbound, even when a
	// throw unwound the join mid-flight.
	ev.tr.Undo(0)
	ev.envs.c = nil
	ev.busy = false
	return err
}

// bind picks the application's binding store — the one place that choice is
// made. The register file takes the application when the evaluation allows
// it (evalConfig.bytecode), the rule is in the compiled fragment, every
// positive literal reads a plain hash relation, and the ranges those scans
// will cover hold only ground facts; anything else binds in the environment
// store. Nothing observable happens here: the sources looked at on the way
// stay in the frames, and one that fails to resolve throws when (if) the
// join reaches it (sourceOf). It also opens the frames for run.
func (ev *evaluator) bind(c *Compiled, rr *ruleRanges, frames []frame) bindings {
	regs := ev.bytecode && c.program() != nil
	for i := range c.Body {
		it, fr := &c.Body[i], &frames[i]
		fr.src, fr.iter, fr.done = nil, nil, false
		if !regs || it.Kind == ItemBuiltin {
			continue
		}
		var err error
		if fr.src, err = ev.st.source(it.Pred); err != nil {
			regs = false
		} else if it.Kind == ItemRel {
			from, to := scanBounds(it, rr, fr.src)
			if sp := rr.Split; sp != nil && i == sp.Pos {
				from, to = sp.From, sp.To
			}
			hr := hashRelOf(fr.src)
			regs = hr != nil && !hr.NonGroundWithin(from, to)
		}
	}
	if regs {
		ev.BCRuns++
		ev.bc.load(c.program())
		return &ev.bc
	}
	ev.envs.load(c, &ev.tr)
	return &ev.envs
}

// run drives the nested-loops join over binding store s from position i, on
// frames its caller opened (bind), and returns -1 once the join is exhausted
// or, when emit declines further derivations, the position to resume at: the
// frames, the store and its trail are the whole state of the join, so a run
// re-entered there over all three carries on (pipeline.go). The explicit
// frames let intelligent backtracking jump over positions that cannot
// change a failed literal's bindings.
func (ev *evaluator) run(c *Compiled, rr *ruleRanges, s bindings, frames []frame, i int, emit emitFunc) int {
	n := len(c.Body)
	// enter readies position i for a fresh activation. A backjump leaves the
	// frames it skipped as they were, so leaving a frame cannot be relied on
	// to have cleared it.
	enter := func(i int) {
		if i < n {
			frames[i].iter, frames[i].done = nil, false
		}
	}

	// backtrack moves control left from a failed position. Backjumping to
	// the precomputed point is only sound when the activation produced no
	// tuple at all: intermediate positions cannot change this item's scan,
	// so retrying them cannot make it succeed. After a partial success the
	// intermediates still owe their remaining combinations, so control
	// moves chronologically.
	backtrack := func(from int, hadAny bool) int {
		if ev.IntelligentBacktracking && !hadAny && c.Body[from].Kind == ItemRel {
			return c.Body[from].BacktrackTo
		}
		return from - 1
	}

	for i >= 0 {
		if i == n {
			ev.Derivations++
			// A completed derivation resumes chronologically (every
			// binding may participate in the next answer).
			i = n - 1
			args, env := s.head()
			if ev.headDup != nil && ev.headDup.ContainsResolved(args, env) {
				continue // known duplicate: skip materializing the head fact
			}
			head := relation.NewFact(args, env)
			if ev.trace != nil {
				ev.capture(c, head, env)
			}
			if !emit(head) {
				return i
			}
			continue
		}
		it, fr := &c.Body[i], &frames[i]
		if it.Kind != ItemRel {
			// Builtins and negations are single-shot: one solution or none.
			if fr.done {
				fr.done = false
				i--
				continue
			}
			ev.Attempts++
			ev.pollBudget()
			if it.Kind == ItemBuiltin {
				fr.done = s.builtin(i)
			} else {
				fr.done = !ev.hasMatch(it, fr, s, i)
			}
			if fr.done {
				i++
				enter(i)
			} else {
				i = backtrack(i, false)
			}
			continue
		}
		if fr.iter == nil {
			fr.iter = ev.openScan(it, i, rr, fr, s)
			fr.any = false
		}
		advanced := false
		for !advanced {
			f, ok := fr.iter.Next()
			if !ok {
				break
			}
			ev.Attempts++
			ev.pollBudget()
			advanced = s.match(i, f)
		}
		if advanced {
			fr.any = true
			i++
			enter(i)
			continue
		}
		fr.iter = nil
		i = backtrack(i, fr.any)
	}
	return -1
}

// sourceOf resolves the relation of the item in frame fr — once per
// application, not once per scan the application opens.
func (ev *evaluator) sourceOf(it *CItem, fr *frame) Source {
	if fr.src == nil {
		src, err := ev.st.source(it.Pred)
		if err != nil {
			throwf("%v", err)
		}
		fr.src = src
	}
	return fr.src
}

// openScan opens the scan for the relation item scheduled at body position
// pos, applying the semi-naive range discipline for recursive items. The
// discipline keys on the item's written position (OrigPos), so a planned
// schedule reads exactly the ranges the written rule would.
func (ev *evaluator) openScan(it *CItem, pos int, rr *ruleRanges, fr *frame, s bindings) relation.Iterator {
	src := ev.sourceOf(it, fr)
	pat, env := s.pattern(pos)
	from, to := scanBounds(it, rr, src)
	if sp := rr.Split; sp != nil && pos == sp.Pos {
		from, to = sp.From, sp.To
	}
	return ev.lookup(fr, src, pat, env, from, to)
}

// lookup opens the scan of src's facts in [from, to) that may match pat
// under env. A hash relation — a snapshot view's included, its range bounded
// by the view's mark (scanBounds) — is served from the frame's index cursor
// when one of its indexes covers the pattern's bound positions, and scanned
// otherwise; any other source does its own lookup.
func (ev *evaluator) lookup(fr *frame, src Source, pat []term.Term, env *term.Env, from, to relation.Mark) relation.Iterator {
	hr := hashRelOf(src)
	if hr == nil {
		return src.LookupRange(pat, env, from, to)
	}
	if fr.cursor.Lookup(hr, pat, env, from, to) {
		ev.IndexProbes++
		return &fr.cursor
	}
	return hr.ScanRange(from, to)
}

// hashRelOf unwraps a Source down to its plain *HashRelation, or nil when
// the source is anything else (module calls, computed, persistent relations).
func hashRelOf(src Source) *relation.HashRelation {
	if p, ok := src.(*relation.Prefix); ok {
		// Reads through a snapshot view go to the underlying relation
		// bounded by scanBounds, whose upper mark is the view's Snapshot —
		// the captured cap — so they never see past the snapshot.
		return p.Rel()
	}
	return hashRelOfWritable(src)
}

// hasMatch reports whether any fact of the negated item's relation unifies
// with its arguments, which the store hands over ground.
func (ev *evaluator) hasMatch(it *CItem, fr *frame, s bindings, pos int) bool {
	pat, env := s.pattern(pos)
	src := ev.sourceOf(it, fr)
	iter := ev.lookup(fr, src, pat, env, 0, src.Snapshot())
	m := ev.tr.Mark()
	// lint:allow scanloop — negation probes one stored relation with ground
	// arguments; the scan is bounded by that relation's size.
	for {
		f, ok := iter.Next()
		if !ok {
			return false
		}
		matched := term.UnifyArgs(pat, env, f.Args, factEnv(&ev.negEnv, f.NVars), &ev.tr)
		ev.tr.Undo(m)
		if matched {
			return true
		}
	}
}
