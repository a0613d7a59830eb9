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

// frame is one nested-loops position: its open scan plus the pooled
// environment candidate facts are unified in. The fact environment is
// reusable because every binding into it is trailed — undoing to the
// frame's mark restores it to fully unbound.
type frame struct {
	iter relation.Iterator // nil for builtins/negation (single-shot)
	fenv *term.Env         // pooled fact env for this position's candidates
	mark int               // trail mark before this item's bindings
	done bool              // single-shot item already satisfied
	any  bool              // this activation yielded at least one tuple
	// probe is the pooled hash-join cursor: lookupFor resets it in place
	// for hash-marked items, so reopening the scan per outer tuple
	// allocates nothing (living in the frame keeps reentrant evaluations
	// safe, unlike an evaluator-level pool would).
	probe relation.JoinProbe
}

// enter (re)initializes the frame for a new activation, keeping the pooled
// fact environment.
func (fr *frame) enter(mark int) {
	fr.iter = nil
	fr.mark = mark
	fr.done = false
	fr.any = false
}

// factEnv returns an environment for a candidate fact: the shared empty
// environment for ground facts (the common case — never a Bind target), or
// the frame's pooled environment grown to the fact's variable count.
func (fr *frame) factEnv(nvars int) *term.Env {
	if nvars == 0 {
		return term.EmptyEnv()
	}
	if fr.fenv == nil {
		fr.fenv = term.NewEnv(nvars)
	} else {
		fr.fenv.EnsureSlots(nvars)
	}
	return fr.fenv
}

// evaluator runs compiled rules against a store.
type evaluator struct {
	st *store
	// IntelligentBacktracking enables the precomputed backtrack points
	// (paper §4.2); when false, failures backtrack chronologically.
	IntelligentBacktracking bool
	// trace, when non-nil, records one justification per derived fact for
	// the Explanation tool.
	trace *TraceLog
	// curRule/curEnv identify the live rule instantiation while emit runs;
	// Ordered Search reads them to attribute derived magic facts to their
	// calling subgoal.
	curRule *Compiled
	curEnv  *term.Env
	// Pooled per-activation state, reused across evalRule calls: the rule
	// environment, the trail, the loop frames (with their fact envs), and
	// the negation scratch env. busy guards against reentrant evalRule
	// (e.g. through an emit callback), which falls back to fresh
	// allocations.
	env    *term.Env
	tr     *term.Trail
	frames []frame
	negEnv *term.Env
	busy   bool
	// headDup, when non-nil, is the relation the current rule's head facts
	// are inserted into: derivations it already contains are skipped before
	// the head fact is materialized (Insert would reject them as duplicates
	// anyway). Callers set it only when the skip is unobservable — not under
	// Ordered Search (availability is deferred to the context), tracing
	// (justifications are recorded per derivation), or multisets.
	headDup *relation.HashRelation
	// guard, when non-nil, is polled amortized — once per budgetCheckEvery
	// tuples considered — so a long scan notices cancellation and deadlines
	// between round barriers. nil costs one branch per tuple.
	guard      *budgetGuard
	budgetTick int
	// tables is the build-table cache for hash-marked items (hashjoin.go),
	// keyed by planned item identity. tablesRO marks worker evaluators,
	// which share the writer's cache read-only and fall back to nested
	// loops on a miss.
	tables   map[*CItem]*builtTable
	tablesRO bool
	// bytecode routes rule versions in the compiled fragment (Compiled.program)
	// through the register machine (bytecode.go); bc is the pooled machine
	// state. Whoever sets trace leaves bytecode false (justifications
	// capture live environments), as does Ordered Search (magic-fact
	// attribution reads curRule/curEnv mid-emit) — see configureEval.
	bytecode bool
	bc       bcMachine
	// stats
	Derivations int // successful head instantiations
	Attempts    int // tuples considered across all loops
	HashBuilds  int // join build tables constructed
	HashProbes  int // scans served from a build table
	BCRuns      int // rule applications run on the bytecode machine
}

// emitFunc receives each derived head fact; returning false stops the rule
// evaluation early (used by lazy scans and existence checks).
type emitFunc func(Fact) bool

// pollBudget is the amortized in-scan budget check: every budgetCheckEvery
// tuples it consults the guard, which throws an *AbortError through the
// panic channel on a tripped budget (recovered in evalRule).
func (ev *evaluator) pollBudget() {
	if ev.guard == nil {
		return
	}
	if ev.budgetTick++; ev.budgetTick >= budgetCheckEvery {
		ev.budgetTick = 0
		ev.guard.poll()
	}
}

// evalRule evaluates one rule version, calling emit for every derivation.
// Eligible versions run on the register bytecode machine; the machine's
// run-time prologue can still decline (non-hash sources, non-ground scan
// ranges), in which case — having done nothing observable — evaluation
// falls through to the interpreter.
func (ev *evaluator) evalRule(c *Compiled, rr ruleRanges, emit emitFunc) error {
	var err error
	if ev.bytecode && !ev.bc.busy {
		if p := c.program(); p != nil {
			handled := false
			ev.bc.busy = true
			func() {
				defer recoverEval(&err)
				handled = ev.runBC(p, rr, emit)
			}()
			ev.bc.busy = false
			if handled || err != nil {
				ev.BCRuns++
				return err
			}
		}
	}
	env, tr, frames, pooled := ev.acquire(c)
	func() {
		defer recoverEval(&err)
		ev.run(c, rr, env, tr, frames, emit)
	}()
	if pooled {
		// Every binding — including into pooled fact envs — is trailed, so
		// one undo returns all pooled environments to fully unbound, even
		// when a throw unwound the join mid-flight.
		tr.Undo(0)
		ev.busy = false
	}
	return err
}

// acquire returns the per-activation state for one rule evaluation,
// preferring the evaluator's pooled state.
func (ev *evaluator) acquire(c *Compiled) (*term.Env, *term.Trail, []frame, bool) {
	if ev.busy {
		return term.NewEnv(c.NVars), &term.Trail{}, make([]frame, len(c.Body)), false
	}
	ev.busy = true
	if ev.env == nil {
		ev.env = term.NewEnv(c.NVars)
		ev.tr = &term.Trail{}
	} else {
		ev.env.EnsureSlots(c.NVars)
	}
	for len(ev.frames) < len(c.Body) {
		ev.frames = append(ev.frames, frame{})
	}
	return ev.env, ev.tr, ev.frames[:len(c.Body)], true
}

// run drives the nested-loops join. It uses explicit iterator frames so
// intelligent backtracking can jump over positions that cannot change a
// failed literal's bindings.
func (ev *evaluator) run(c *Compiled, rr ruleRanges, env *term.Env, tr *term.Trail, frames []frame, emit emitFunc) {
	ev.curRule, ev.curEnv = c, env
	defer func() { ev.curRule, ev.curEnv = nil, nil }()
	n := len(c.Body)
	if n == 0 {
		ev.Derivations++
		head := relation.NewFact(c.HeadArgs, env)
		if ev.trace != nil {
			ev.capture(c, head, env)
		}
		emit(head)
		return
	}
	i := 0
	frames[0].enter(tr.Mark())

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
			if ev.headDup != nil && ev.headDup.ContainsResolved(c.HeadArgs, env) {
				// Known duplicate: skip materializing the head fact.
				i = n - 1
				continue
			}
			head := relation.NewFact(c.HeadArgs, env)
			if ev.trace != nil {
				ev.capture(c, head, env)
			}
			if !emit(head) {
				return
			}
			i = n - 1
			// A completed derivation resumes chronologically (every
			// binding may participate in the next answer).
			continue
		}
		it := &c.Body[i]
		fr := &frames[i]
		switch it.Kind {
		case ItemBuiltin:
			tr.Undo(fr.mark)
			if fr.done {
				fr.done = false
				i = i - 1 // single-shot: no more solutions
				continue
			}
			ev.Attempts++
			ev.pollBudget()
			if evalBuiltin(it.Op, it.Args, env, tr) {
				fr.done = true
				i++
				if i < n {
					frames[i].enter(tr.Mark())
				}
				continue
			}
			// A failed builtin may leave partial bindings (a "=" unifies
			// some subterms before failing); no undo here, because every
			// continuation re-enters through one — each case above starts
			// with an undo to its own frame's (earlier or equal) mark, and
			// rule exit unwinds the trail to its start.
			i = backtrack(i, false)
		case ItemNegRel:
			tr.Undo(fr.mark)
			if fr.done {
				fr.done = false
				i = i - 1
				continue
			}
			ev.Attempts++
			ev.pollBudget()
			if !ev.hasMatch(it, env, tr) {
				fr.done = true
				i++
				if i < n {
					frames[i].enter(tr.Mark())
				}
				continue
			}
			i = backtrack(i, false)
		case ItemRel:
			if fr.iter == nil {
				fr.iter = ev.lookupFor(it, i, rr, env, fr)
				fr.any = false
			}
			tr.Undo(fr.mark)
			advanced := false
			for {
				f, ok := fr.iter.Next()
				if !ok {
					break
				}
				ev.Attempts++
				ev.pollBudget()
				if it.ArgsGround && f.NVars == 0 {
					// Ground vs ground: equality, decided on hash-cons
					// identifiers, with no environments touched.
					if term.EqualArgs(it.Args, f.Args) {
						advanced = true
						break
					}
					continue
				}
				if term.UnifyArgs(it.Args, env, f.Args, fr.factEnv(f.NVars), tr) {
					advanced = true
					break
				}
				tr.Undo(fr.mark)
			}
			if advanced {
				fr.any = true
				i++
				if i < n {
					frames[i].enter(tr.Mark())
				}
				continue
			}
			hadAny := fr.any
			fr.iter = nil
			i = backtrack(i, hadAny)
		}
	}
}

// lookupFor opens the scan for the relation item scheduled at body position
// pos, applying the semi-naive range discipline for recursive items. The
// discipline keys on the item's written position (OrigPos), so a planned
// schedule reads exactly the ranges the written rule would. Items the
// planner hash-marked are served from a build table instead (hashjoin.go),
// resetting the frame's pooled probe cursor; a worker-side cache miss falls
// through to the ordinary lookup path.
func (ev *evaluator) lookupFor(it *CItem, pos int, rr ruleRanges, env *term.Env, fr *frame) relation.Iterator {
	src, err := ev.st.source(it.Pred)
	if err != nil {
		throwf("%v", err)
	}
	if sp := rr.Split; sp != nil && pos == sp.Pos {
		return src.LookupRange(it.Args, env, sp.From, sp.To)
	}
	if it.HashKeyPos != nil {
		if hr := hashRelOf(src); hr != nil {
			from, to := scanBounds(it, rr, src)
			if bt := ev.tableFor(it, hr, from, to); bt != nil {
				ev.HashProbes++
				bt.tab.Probe(it.Args, env, &fr.probe)
				return &fr.probe
			}
		}
	}
	if !it.Recursive || rr.DeltaPos < 0 {
		return src.Lookup(it.Args, env)
	}
	from, to := scanBounds(it, rr, src)
	return src.LookupRange(it.Args, env, from, to)
}

// hasMatch reports whether any fact of the negated item's relation unifies
// with its (ground) arguments. Negation requires the arguments to be ground
// at evaluation time.
func (ev *evaluator) hasMatch(it *CItem, env *term.Env, tr *term.Trail) bool {
	for _, a := range it.Args {
		if !term.GroundUnder(a, env) {
			throwf("engine: negation on %s with unbound argument %s", it.Pred, a)
		}
	}
	src, err := ev.st.source(it.Pred)
	if err != nil {
		throwf("%v", err)
	}
	iter := src.Lookup(it.Args, env)
	m := tr.Mark()
	// lint:allow scanloop — negation probes one stored relation with ground
	// arguments; the scan is bounded by that relation's size.
	for {
		f, ok := iter.Next()
		if !ok {
			return false
		}
		fenv := term.EmptyEnv()
		if f.NVars > 0 {
			if ev.negEnv == nil {
				ev.negEnv = term.NewEnv(f.NVars)
			} else {
				ev.negEnv.EnsureSlots(f.NVars)
			}
			fenv = ev.negEnv
		}
		matched := term.UnifyArgs(it.Args, env, f.Args, fenv, tr)
		tr.Undo(m)
		if matched {
			return true
		}
	}
}
