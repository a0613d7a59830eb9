package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// System is the engine-level registry of base relations and modules. It is
// the data-server process of paper §2: base relations (in-memory, computed,
// or persistent) plus declarative modules whose exported predicates are
// visible to all other modules and to queries.
//
// # Concurrency (DESIGN.md §5.16)
//
// The registry maps are guarded by mu, so concurrent evaluations may
// resolve (and auto-define) predicates safely. Everything else follows the
// split the server relies on: the configuration fields below are set before
// serving begins and read-only afterwards; relation reads obey the
// single-writer contract (§5.9), with mutual exclusion supplied by the
// caller (the coral server's epoch guard); per-evaluation state (stores,
// evaluators, plans, bytecode) is private to one call. Concurrent read-only
// evaluations are safe through View; interleaving a writer (fact loads,
// module installs, deletes) with evaluations is not — fence it.
type System struct {
	mu      sync.RWMutex
	base    map[ast.PredKey]relation.Relation // guarded_by(mu)
	exports map[ast.PredKey]*ModuleDef        // guarded_by(mu)
	modules map[string]*ModuleDef             // guarded_by(mu)
	// Parallelism bounds the worker pool of each BSN fixpoint round
	// (parallel.go) — a resource bound, and the only evaluation option:
	// every other choice of path is made by configureEval from what the
	// evaluation can observe. 0 uses runtime.GOMAXPROCS(0); 1 forces
	// sequential rounds. Strata whose evaluation is inherently sequential —
	// Ordered Search, tracing, aggregate selections, module-call or computed
	// body sources — ignore the setting and run sequentially either way.
	// unguarded: configuration, set before concurrent use.
	Parallelism int
	// Ctx, when non-nil, is polled during evaluation; cancellation aborts
	// the running call with an *AbortError. The single-user interactive
	// system makes a stored context the natural shape: the REPL arms it
	// per input line (Ctrl-C interrupts the query, not the process).
	// unguarded: single-writer interactive state; server sessions carry
	// their context on the View instead of mutating this field.
	Ctx context.Context
	// Budget bounds each evaluated call (see Budget); the zero value is
	// unlimited. The deadline is anchored when a call starts, so a
	// save-module evaluation gets a fresh deadline per call.
	// unguarded: set during configuration, read-only once serving.
	Budget Budget
}

// NewSystem creates an empty system.
func NewSystem() *System {
	return &System{
		base:    make(map[ast.PredKey]relation.Relation),
		exports: make(map[ast.PredKey]*ModuleDef),
		modules: make(map[string]*ModuleDef),
	}
}

// BaseRelation returns (creating if needed) the in-memory base relation for
// name/arity. It errors when the predicate is already registered with a
// non-hash representation (computed, persistent, list): those relations
// cannot accept interactive inserts. A relation created here gets the
// indexes the installed modules' rules probe it with (indexBase).
func (sys *System) BaseRelation(name string, arity int) (*relation.HashRelation, error) {
	key := ast.PredKey{Name: name, Arity: arity}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if r, ok := sys.base[key]; ok {
		if hr, isHash := r.(*relation.HashRelation); isHash {
			return hr, nil
		}
		return nil, fmt.Errorf("engine: %s exists with a different representation (%T)", key, r)
	}
	r := relation.NewHashRelation(name, arity)
	mods := make([]string, 0, len(sys.modules))
	for mod := range sys.modules {
		mods = append(mods, mod)
	}
	sort.Strings(mods)
	for _, mod := range mods {
		sys.modules[mod].indexBase(map[ast.PredKey]relation.Relation{key: r})
	}
	sys.base[key] = r
	return r, nil
}

// RegisterRelation installs an existing relation (computed, persistent,
// list) as a base relation.
func (sys *System) RegisterRelation(r relation.Relation) error {
	key := ast.PredKey{Name: r.Name(), Arity: r.Arity()}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if _, dup := sys.base[key]; dup {
		return fmt.Errorf("engine: relation %s already defined", key)
	}
	if _, dup := sys.exports[key]; dup {
		return fmt.Errorf("engine: %s already exported by a module", key)
	}
	sys.base[key] = r
	return nil
}

// Relation returns the base relation for key, if any.
func (sys *System) Relation(key ast.PredKey) (relation.Relation, bool) {
	sys.mu.RLock()
	r, ok := sys.base[key]
	sys.mu.RUnlock()
	return r, ok
}

// Bases calls fn for every registered base relation under the registry
// lock (the server's snapshot capture; fn must not call back into sys).
func (sys *System) Bases(fn func(ast.PredKey, relation.Relation)) {
	sys.mu.RLock()
	defer sys.mu.RUnlock()
	for key, r := range sys.base {
		fn(key, r)
	}
}

// ModuleDef is an installed module: the source plus compiled programs per
// query form, and the save-module state (paper §5.4.2).
type ModuleDef struct {
	Src *ast.Module // unguarded: immutable after install
	sys *System     // unguarded: immutable after install

	// mu guards the lazily grown caches below (progs, staticEst): module
	// calls from concurrent read-only evaluations (View) compile
	// existential variants and compute static estimates on demand.
	mu    sync.Mutex
	progs map[string]*Program // guarded_by(mu); by adornment

	// savedMu serializes save-module calls: the saved matEval is shared
	// accumulated state (paper §5.4.2 — one evaluation serves every caller
	// that may write), so concurrent calls take turns.
	savedMu   sync.Mutex
	saved     map[string]*matEval // guarded_by(savedMu); save-module state, by adornment
	savedView View                // guarded_by(savedMu); the writer view of the running saved call

	pipe *pipeProgram // unguarded: immutable after install; pipelined modules

	// staticEst caches the module's compile-time cardinality estimate over
	// its source rules — the price tag callers' planners put on this
	// module's exports (cardseed.go). guarded_by(mu); estimate cycles
	// between modules are broken by the visited set threaded through
	// exportStaticStats.
	staticEst *cardResult
}

// AddModule validates and installs a module, preparing a program for each
// declared query form (the paper's optimizer runs per module and query
// form, §2).
func (sys *System) AddModule(m *ast.Module) error {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if _, dup := sys.modules[m.Name]; dup {
		return fmt.Errorf("engine: module %s already defined", m.Name)
	}
	if err := VetModule(m); err != nil {
		return err
	}
	def := &ModuleDef{
		Src:   m,
		sys:   sys,
		progs: make(map[string]*Program),
		saved: make(map[string]*matEval),
	}
	if m.Ann.Pipelining {
		pp, err := buildPipeProgram(m)
		if err != nil {
			return err
		}
		def.pipe = pp
	}
	for _, e := range m.Exports {
		key := ast.PredKey{Name: e.Pred, Arity: e.Arity}
		if _, dup := sys.exports[key]; dup {
			return fmt.Errorf("engine: %s exported by two modules", key)
		}
		if _, dup := sys.base[key]; dup {
			return fmt.Errorf("engine: %s already defined as a base relation", key)
		}
		// A materialized module gets a program per form, a pipelined one
		// the form's index requests.
		for _, form := range e.Forms {
			var err error
			switch k := formKey(e.Pred, form); {
			case def.pipe != nil:
				err = def.pipe.addIndexReqs(m, key, form)
			case def.progs[k] == nil:
				def.progs[k], err = buildProgram(m, key, form, nil, true)
			}
			if err != nil {
				return fmt.Errorf("module %s, query form %s(%s): %w", m.Name, e.Pred, form, err)
			}
		}
	}
	for _, e := range m.Exports {
		sys.exports[ast.PredKey{Name: e.Pred, Arity: e.Arity}] = def
	}
	sys.modules[m.Name] = def
	def.indexBase(sys.base)
	return nil
}

// indexBase is the index policy for base relations: every hash relation in
// base that the module reads gets the argument-form indexes its rules probe
// it with in written order — each program's Program.IndexReqs (paper §3.3,
// §5.3), or a pipelined module's pipeProgram.indexReqs. The planner adds the
// indexes a reordered schedule probes when it fits one (ensurePlanIndexes),
// on the relations the evaluation may write. Callers hold sys.mu for writing
// — AddModule for the relations that exist when a module is installed,
// BaseRelation for one created later — so no evaluation reads a relation
// while its indexes are built, and a read-only snapshot session finds them
// already there. Programs are visited in form order, so a relation's
// indexes, and the one a lookup picks among equally wide candidates, do not
// depend on map order.
func (def *ModuleDef) indexBase(base map[ast.PredKey]relation.Relation) {
	apply := func(reqs map[ast.PredKey][][]int, local map[ast.PredKey]bool) {
		for key, rs := range reqs {
			hr, ok := base[key].(*relation.HashRelation)
			if !ok || local[key] {
				continue
			}
			for _, pos := range rs {
				_ = hr.MakeIndex(pos...) // compiled argument positions: always in range
			}
		}
	}
	if def.pipe != nil {
		apply(def.pipe.indexReqs, nil)
	}
	progs := def.Programs()
	forms := make([]string, 0, len(progs))
	for form := range progs {
		forms = append(forms, form)
	}
	sort.Strings(forms)
	for _, form := range forms {
		apply(progs[form].IndexReqs, progs[form].LocalPreds)
	}
}

// Module returns an installed module by name.
func (sys *System) Module(name string) (*ModuleDef, bool) {
	sys.mu.RLock()
	d, ok := sys.modules[name]
	sys.mu.RUnlock()
	return d, ok
}

// Export returns the module exporting the given predicate, if any.
func (sys *System) Export(key ast.PredKey) (*ModuleDef, bool) {
	sys.mu.RLock()
	d, ok := sys.exports[key]
	sys.mu.RUnlock()
	return d, ok
}

// Programs exposes a copy of the compiled-program cache
// (rewritten-program dumps, tests).
func (def *ModuleDef) Programs() map[string]*Program {
	def.mu.Lock()
	defer def.mu.Unlock()
	out := make(map[string]*Program, len(def.progs))
	for k, p := range def.progs {
		out[k] = p
	}
	return out
}

func formKey(pred, form string) string { return pred + "/" + form }

// fixpointWorkers resolves the Parallelism setting to a worker count.
func (sys *System) fixpointWorkers() int {
	if sys.Parallelism > 0 {
		return sys.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// relSource adapts relation.Relation to Source.
type relSource struct{ r relation.Relation }

func (s relSource) Lookup(pattern []term.Term, env *term.Env) relation.Iterator {
	return s.r.Lookup(pattern, env)
}

func (s relSource) LookupRange(pattern []term.Term, env *term.Env, from, to relation.Mark) relation.Iterator {
	return s.r.LookupRange(pattern, env, from, to)
}

func (s relSource) Snapshot() relation.Mark { return s.r.Snapshot() }

// Call evaluates a query against an exported predicate. The argument
// pattern (under env) supplies the bindings; the best matching declared
// query form is chosen. Answers stream through the returned iterator;
// callers unify each fact against their pattern. The call runs under the
// System's writer view.
func (def *ModuleDef) Call(pred ast.PredKey, args []term.Term, env *term.Env) (relation.Iterator, error) {
	return def.callWith(&callCfg{v: def.sys.writerView()}, pred, args, env)
}

// callWith is Call under an explicit caller configuration (see callCfg):
// the one setup every evaluation of a module goes through.
func (def *ModuleDef) callWith(cfg *callCfg, pred ast.PredKey, args []term.Term, env *term.Env) (it relation.Iterator, err error) {
	// Budget aborts travel the panic channel (Throw); recover here so a
	// trip during seeding or an eager run surfaces as the call's error.
	defer recoverEval(&err)
	if def.pipe != nil {
		return def.callPipelined(cfg, pred, args, env)
	}
	form, err := def.selectForm(pred, args, env)
	if err != nil {
		return nil, err
	}
	prog, err := def.progForCall(pred, form, args, env, cfg.trace == nil)
	if err != nil {
		return nil, err
	}
	if prog.SaveModule && cfg.v.writer && cfg.trace == nil {
		return def.callSaved(cfg, prog, pred, form, args, env)
	}
	me := newMatEval(prog, cfg.external)
	def.configureEval(me, cfg, prog)
	cfg.acc.collect(me)
	me.addSeed(args, env)
	scan := def.newAnswerScan(me, prog, pred, args, env)
	if prog.Eager {
		me.run()
		if me.err != nil {
			return nil, me.err
		}
	}
	return scan, nil
}

// callSaved is the save-module arm of callWith, for the writer view. A
// session's read-only view evaluates privately instead, like a call to any
// other module: a snapshot session must neither read state derived from
// facts past its marks nor advance shared state to marks later callers
// cannot see (a traced call too: its justifications start with the call).
// The saved matEval is shared accumulated state, so calls serialize on
// savedMu, and save-module computes eagerly — suspending a shared
// evaluation between calls would interleave two consumers. The state
// outlives the call, so it resolves its sources through the System's writer
// view, never through one call's accumulator: savedView, refreshed from each
// call's view, is what the module-call sources cached in the state's plans
// read their context and budget from at every lookup.
//
// The state is reused only while every base relation it read, itself or
// behind the exports it calls, is as it was when the last call finished
// (matEval.noteInputs, inputsMoved): an append can add
// answers, and an append to a relation read under "not", or any delete, can
// take them away. A moved input — or an aborted previous call, which leaves
// relations missing derivations or holding a torn round — discards the state,
// and a fresh evaluation replaces it.
func (def *ModuleDef) callSaved(cfg *callCfg, prog *Program, pred ast.PredKey, form string, args []term.Term, env *term.Env) (relation.Iterator, error) {
	def.savedMu.Lock()
	defer def.savedMu.Unlock()
	def.savedView = *cfg.v
	me := def.saved[formKey(pred.Name, form)]
	if me == nil || me.err != nil || me.inputsMoved() {
		me = newMatEval(prog, (&callCfg{v: &def.savedView}).external)
		def.saved[formKey(pred.Name, form)] = me
	}
	def.configureEval(me, cfg, prog)
	me.addSeed(args, env)
	scan := def.newAnswerScan(me, prog, pred, args, env)
	me.run()
	me.inputs = me.inputs[:0]
	me.noteInputs(def, make(map[*ModuleDef]bool))
	if me.err != nil {
		return nil, me.err
	}
	return scan, nil
}

// configureEval is the one place that decides how an evaluation's rule
// versions run; everything else reads the flags it sets. It runs on every
// call, so a saved evaluation follows the caller's guard and worker budget.
// The selection, from what the evaluation can observe:
//
//	observed                                  path
//	----------------------------------------  ---------------------------------
//	Ordered Search context, or tracing        reference: written order, index
//	  (ExplainCall's callCfg.trace)             lookups, environment store, one
//	                                            worker — magic-fact attribution
//	                                            and justifications read the
//	                                            written rule and live envs
//	otherwise                                 planned order per rule version
//	                                            from live statistics, static
//	                                            estimates where those are cold
//	                                            (planFor, staticSeeder); the
//	                                            clone it names is built once per
//	                                            Program (Program.planned), and
//	                                            every fitted schedule gets the
//	                                            indexes it probes
//	                                            (ensurePlanIndexes)
//	  rule in the compiled fragment, hash     bindings in the register file,
//	  sources, ground scan ranges               compiled once per rule or
//	                                            memoised plan; anything else in
//	                                            the environment store, per
//	                                            application (evaluator.bind)
//	  BSN round with a delta of at least two  System.Parallelism workers for
//	  chunks (2 × parMinChunk rows), stratum    that round; any other round
//	  over hash relations, no aggregate         inline on the caller
//	  selections in the program                 (workersFor)
//	a session's read-only view (sharedRO)     plan indexes only on the
//	                                            evaluation's own relations
//	                                            (base relations carry the
//	                                            written-order ones, indexBase)
//
// Every row runs the one nested-loops driver (evaluator.run); the rows pick
// its plan and its binding store. On every row a bound literal over a hash
// relation is read from the relation's index through the join position's
// index cursor (evaluator.lookup). The zero-valued flags of a bare
// newMatEval are the reference row.
func (def *ModuleDef) configureEval(me *matEval, cfg *callCfg, prog *Program) {
	me.ev.trace = cfg.trace
	reference := me.ctx != nil || me.ev.trace != nil
	me.planning = !reference
	me.ev.bytecode = !reference
	me.parallelism = 1
	if !reference {
		me.parallelism = def.sys.fixpointWorkers()
	}
	me.seed = &staticSeeder{sys: def.sys, prog: prog}
	me.sharedRO = !cfg.v.writer
	me.setGuard(newGuard(cfg.v.Ctx, cfg.v.Budget))
}

// newAnswerScan builds the answer iterator for one call, projecting the
// pattern when the program was existentially rewritten.
func (def *ModuleDef) newAnswerScan(me *matEval, prog *Program, pred ast.PredKey, args []term.Term, env *term.Env) *answerScan {
	pat, nvars := term.ResolveArgs(args, env)
	if prog.KeepPositions != nil {
		// Existentially rewritten program: answers carry only the kept
		// positions; match against the projected pattern.
		proj := make([]term.Term, len(prog.KeepPositions))
		for i, pos := range prog.KeepPositions {
			proj[i] = pat[pos]
		}
		pat = proj
	}
	return &answerScan{me: me, pattern: pat, patVars: nvars,
		keep: prog.KeepPositions, fullArity: pred.Arity}
}

// progForCall returns the compiled program for a call: the plain program
// for the selected form, or — when project is set, the call leaves some
// positions unobserved (anonymous variables) and the module allows it — a
// variant with existential query rewriting applied (paper §4.1, on by
// default, disabled by @no_existential). Variants are compiled once and
// cached. A traced call does not project: it explains the written program.
func (def *ModuleDef) progForCall(pred ast.PredKey, form string, args []term.Term, env *term.Env, project bool) (*Program, error) {
	def.mu.Lock()
	base := def.progs[formKey(pred.Name, form)]
	def.mu.Unlock()
	if !project || def.Src.Ann.NoExistential || def.Src.Ann.SaveModule || def.Src.Ann.Rewriting == "none" || def.Src.Ann.Rewriting == "factoring" {
		return base, nil
	}
	mask := make([]bool, len(args))
	anyDrop := false
	for i, a := range args {
		t, _ := term.Deref(a, env)
		v, isVar := t.(*term.Var)
		observed := !isVar || v.Name != ""
		// A bound position of the form is always observed (it carries the
		// selection).
		if i < len(form) && form[i] == 'b' {
			observed = true
		}
		mask[i] = observed
		if !observed {
			anyDrop = true
		}
	}
	if !anyDrop {
		return base, nil
	}
	key := formKey(pred.Name, form) + "/" + maskString(mask)
	def.mu.Lock()
	if p, ok := def.progs[key]; ok {
		def.mu.Unlock()
		return p, nil
	}
	def.mu.Unlock()
	// Compile outside the lock (two racing callers may both build; the
	// first store wins and the duplicate is dropped).
	p, err := buildProgram(def.Src, pred, form, mask, true)
	if err != nil {
		// Projection is an optimization; fall back to the base program.
		return base, nil
	}
	def.mu.Lock()
	if q, ok := def.progs[key]; ok {
		p = q
	} else {
		def.progs[key] = p
	}
	def.mu.Unlock()
	return p, nil
}

func maskString(mask []bool) string {
	b := make([]byte, len(mask))
	for i, m := range mask {
		if m {
			b[i] = 'o'
		} else {
			b[i] = 'x'
		}
	}
	return string(b)
}

// selectForm picks the declared query form with the most bound positions
// that the call can satisfy (a 'b' requires the argument to be ground under
// env).
func (def *ModuleDef) selectForm(pred ast.PredKey, args []term.Term, env *term.Env) (string, error) {
	var forms []string
	for _, e := range def.Src.Exports {
		if e.Pred == pred.Name && e.Arity == pred.Arity {
			forms = e.Forms
		}
	}
	best := ""
	bestBound := -1
	for _, form := range forms {
		ok := true
		bound := 0
		for i := 0; i < len(form); i++ {
			if form[i] != 'b' {
				continue
			}
			if !term.GroundUnder(args[i], env) {
				ok = false
				break
			}
			bound++
		}
		if ok && bound > bestBound {
			best, bestBound = form, bound
		}
	}
	if bestBound < 0 {
		return "", fmt.Errorf("engine: no declared query form of %s matches the call's bindings (declared: %v)", pred, forms)
	}
	return best, nil
}

// answerScan streams a materialized evaluation's answers: it returns the
// facts accumulated so far that match the call's pattern — the answer
// relation may hold answers to other subgoals (magic computes every
// relevant subquery; save-module accumulates across calls) — and resumes
// the evaluation ("reactivates the frozen computation", §5.4.3) whenever
// the consumer wants more.
type answerScan struct {
	me       *matEval
	pattern  []term.Term
	patVars  int
	consumed relation.Mark
	cur      relation.Iterator
	curEnd   relation.Mark
	tr       term.Trail
	// penv/fenv are the pattern-match scratch environments, pooled across
	// answers (matches undoes every binding through the trail, so reuse is
	// safe; one scan has a single consumer).
	penv *term.Env
	fenv *term.Env
	// keep/fullArity describe an existential projection: stored answers
	// have len(keep) arguments; returned facts are widened to fullArity
	// with fresh variables at the dropped (unobserved) positions.
	keep      []int
	fullArity int
}

// widen expands a projected answer to the call's arity. The dropped
// positions were anonymous in the call, so the caller never reads the
// fresh variables placed there.
func (s *answerScan) widen(f Fact) Fact {
	if s.keep == nil {
		return f
	}
	args := make([]term.Term, s.fullArity)
	for i, pos := range s.keep {
		args[pos] = f.Args[i]
	}
	nv := f.NVars
	for i := range args {
		if args[i] == nil {
			args[i] = &term.Var{Index: nv}
			nv++
		}
	}
	return Fact{Args: args, NVars: nv}
}

// matches checks the fact against the call pattern.
func (s *answerScan) matches(f Fact) bool {
	if s.penv == nil {
		s.penv = term.NewEnv(s.patVars)
	}
	fenv := term.EmptyEnv()
	if f.NVars > 0 {
		if s.fenv == nil {
			s.fenv = term.NewEnv(f.NVars)
		} else {
			s.fenv.EnsureSlots(f.NVars)
		}
		fenv = s.fenv
	}
	m := s.tr.Mark()
	ok := term.UnifyArgs(s.pattern, s.penv, f.Args, fenv, &s.tr)
	s.tr.Undo(m)
	return ok
}

// Next implements relation.Iterator.
func (s *answerScan) Next() (Fact, bool) {
	for {
		if s.cur != nil {
			// lint:allow scanloop — replays a snapshot of the materialized
			// answer relation; growth was already budget-checked at insert.
			for {
				f, ok := s.cur.Next()
				if !ok {
					break
				}
				if s.matches(f) {
					return s.widen(f), true
				}
			}
			s.cur = nil
			s.consumed = s.curEnd
		}
		ans := s.me.answers()
		if mark := ans.Snapshot(); mark > s.consumed {
			s.cur = ans.ScanRange(s.consumed, mark)
			s.curEnd = mark
			continue
		}
		if s.me.finished {
			if s.me.err != nil {
				Throw(s.me.err) // preserve typed errors (*AbortError)
			}
			return Fact{}, false
		}
		s.me.step()
		if s.me.err != nil {
			Throw(s.me.err)
		}
	}
}

// Query evaluates a top-level conjunctive query against base relations and
// module exports through the System's writer view (View.Query).
func (sys *System) Query(body []ast.Literal) (vars []string, facts []Fact, stats RunStats, err error) {
	return sys.writerView().Query(body)
}
