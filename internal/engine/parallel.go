package engine

import (
	"sync"
	"sync/atomic"

	"coral/internal/ast"
	"coral/internal/relation"
)

// Parallel Basic Semi-Naive rounds.
//
// A BSN round applies every delta version of every recursive rule against
// snapshots frozen at the top of the round: reads never see the round's own
// inserts (paper §4.2), so rule application is side-effect-free until the
// head insert. The round is therefore partitioned into tasks — one per
// (rule, delta version, ordinal chunk of the version's outermost relation
// item) — evaluated by a pool of workers that only read, each emitting into
// a private buffer. At the round barrier a single writer merges the buffers
// in deterministic task order, which is exactly the sequential emission
// order: iterators yield ascending ordinals, chunks cover ascending ordinal
// ranges, and tasks are ordered (rule, version, chunk). Every duplicate and
// subsumption decision in the merge hence sees the same prior facts as the
// sequential round would, making the resulting relations — and the answer
// sets — identical byte for byte.
//
// The relation layer's single-writer/multi-reader contract this relies on
// is documented on HashRelation and in DESIGN.md §5.9.

// parMinChunk is the smallest ordinal range worth giving its own task; a
// package variable so tests can lower it to force multi-chunk rounds on
// tiny relations.
var parMinChunk = 64

// parTask is one unit of parallel work: a rule version, possibly
// restricted to an ordinal chunk of its outermost relation item. head and
// headSnap let workers discard derivations that duplicate a round-start
// fact (see bsnParallel); filter is false for multiset heads, which keep
// every derivation.
type parTask struct {
	c        *Compiled
	rr       ruleRanges
	head     *relation.HashRelation
	headSnap relation.Mark
	filter   bool
}

// workersFor decides how many workers a BSN round over st may use: the
// evaluation's worker budget (configureEval), provided the stratum itself
// passes the safety analysis.
func (me *matEval) workersFor(st *Stratum) int {
	if me.parallelism <= 1 {
		return 1
	}
	if !me.stratumParallelSafe(st) {
		return 1
	}
	return me.parallelism
}

// stratumParallelSafe caches checkParallelSafe: the store's sources cannot
// change between rounds of one evaluation.
func (me *matEval) stratumParallelSafe(st *Stratum) bool {
	if me.parSafe == nil {
		me.parSafe = make(map[*Stratum]bool)
	}
	safe, ok := me.parSafe[st]
	if !ok {
		safe = me.checkParallelSafe(st)
		me.parSafe[st] = safe
	}
	return safe
}

// checkParallelSafe reports whether every read a round over st performs is
// concurrency-safe, and as a side effect resolves every body source and
// creates every head relation, so the store's lazy maps are not mutated
// while workers run.
//
// Aggregate selections are excluded wholesale: a displacing insert deletes
// the displaced fact mid-round, and sequential evaluation sees that
// deletion between rule applications while buffered workers would not —
// answers could diverge. Module calls and computed/persistent relations
// are excluded because their Lookup paths keep private mutable state.
func (me *matEval) checkParallelSafe(st *Stratum) bool {
	if len(me.prog.AggSels) > 0 {
		return false
	}
	for _, c := range st.RecRules {
		me.st.rel(c.HeadPred)
		for i := range c.Body {
			it := &c.Body[i]
			if it.Kind != ItemRel && it.Kind != ItemNegRel {
				continue
			}
			src, err := me.st.source(it.Pred)
			if err != nil {
				return false // let the sequential path surface the error
			}
			switch s := src.(type) {
			case *relation.HashRelation:
			case *relation.Prefix:
				// Mark-bounded lookups on the underlying relation; as
				// race-free for workers as the relation itself.
			case relSource:
				switch s.r.(type) {
				case *relation.HashRelation, *relation.ListRelation:
				default:
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

// bsnParallel is one BSN round on the worker pool. It mirrors
// bsnIteration exactly: same snapshots, same versions, same mark
// advancement, same progress test — only the rule applications run
// concurrently and their inserts are replayed at the barrier.
func (me *matEval) bsnParallel(st *Stratum, workers int) bool {
	before := me.totalFacts(st)
	now := make(map[ast.PredKey]relation.Mark)
	for _, c := range st.RecRules {
		for _, pos := range c.RecPositions {
			pred := c.Body[pos].Pred
			if _, ok := now[pred]; !ok {
				now[pred] = me.st.rel(pred).Snapshot()
			}
		}
	}

	// Round-start snapshot of every head relation: a derivation that
	// duplicates (or is subsumed by) a live fact below this mark would be
	// rejected by the merge no matter what else the round inserts, so
	// workers drop it early — moving most duplicate elimination off the
	// serial merge and into the parallel phase. The check is read-only and
	// Mark-bounded, which the single-writer contract makes race-free.
	headSnap := make(map[ast.PredKey]relation.Mark)
	for _, c := range st.RecRules {
		if _, ok := headSnap[c.HeadPred]; !ok {
			headSnap[c.HeadPred] = me.st.rel(c.HeadPred).Snapshot()
		}
	}

	var tasks []parTask
	ruleNows := make([]map[ast.PredKey]relation.Mark, len(st.RecRules))
	for ri, c := range st.RecRules {
		last := me.marksFor(c)
		for _, pos := range c.RecPositions {
			pred := c.Body[pos].Pred
			if _, ok := last[pred]; !ok {
				last[pred] = 0
			}
		}
		ruleNow := make(map[ast.PredKey]relation.Mark)
		for _, pos := range c.RecPositions {
			ruleNow[c.Body[pos].Pred] = now[c.Body[pos].Pred]
		}
		ruleNows[ri] = ruleNow
		head := me.st.rel(c.HeadPred)
		for _, pos := range c.RecPositions {
			rr := ruleRanges{DeltaPos: pos, Last: last, Now: ruleNow}
			// Plan on the writer goroutine before workers exist: workers
			// receive the already-fitted schedule, and the split position
			// follows the delta literal to its planned slot. Build tables
			// the same way — workers probe the shared cache read-only.
			pc := me.planFor(c, pos)
			if err := me.prebuildTables(pc, rr); err != nil {
				me.fail(err)
				return false
			}
			if me.ev.bytecode {
				// Compile on the writer too: workers share the program cache
				// read-only, so a worker-side miss would mean nested loops
				// for that task while others run bytecode — same answers,
				// but compiling here keeps the paths uniform.
				me.ev.bcFor(pc)
			}
			for _, t := range me.splitVersion(pc, rr, workers) {
				t.head = head
				t.headSnap = headSnap[c.HeadPred]
				t.filter = !head.Multiset
				tasks = append(tasks, t)
			}
		}
	}

	// Workers pull tasks from a shared cursor. Each task gets a private
	// evaluator (evaluators carry per-activation state) and a private
	// output buffer; nothing shared is written until the barrier.
	results := make([][]Fact, len(tasks))
	errs := make([]error, len(tasks))
	evs := make([]evaluator, len(tasks))
	var cursor int64
	var wg sync.WaitGroup
	if workers > len(tasks) {
		workers = len(tasks)
	}
	// Workers share the call's budget guard: each polls the context and
	// deadline amortized through its private evaluator, and buffered emits
	// are charged against the shared atomic fact counter — so a round that
	// would buffer far past MaxFacts stops in the worker phase, not at the
	// merge. Emits the merge later rejects as duplicates stay charged (a
	// small overshoot; workers pre-filter most duplicates anyway).
	var guard *budgetGuard
	if me.guard.active() {
		guard = &me.guard
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1)) - 1
				if i >= len(tasks) {
					return
				}
				t := &tasks[i]
				ev := &evs[i]
				ev.st = me.st
				ev.IntelligentBacktracking = me.ev.IntelligentBacktracking
				ev.guard = guard
				// Prebuilt on the writer; a miss (an item the prebuild
				// skipped) falls back to nested loops rather than building
				// into the shared map from a worker.
				ev.tables = me.ev.tables
				ev.tablesRO = true
				ev.bytecode = me.ev.bytecode
				ev.bcProgs = me.ev.bcProgs
				ev.bcRO = true
				if t.filter {
					// The head relation is frozen during the worker phase
					// (single-writer merge happens after the barrier), so the
					// probe sees exactly the facts DuplicateWithin would.
					ev.headDup = t.head
				}
				var emitErr error
				err := ev.evalRule(t.c, t.rr, func(f Fact) bool {
					if t.filter && t.head.DuplicateWithin(f, t.headSnap) {
						return true // merge would reject it; drop in parallel
					}
					if emitErr = guard.addFact(); emitErr != nil {
						return false // budget tripped: stop this task cleanly
					}
					results[i] = append(results[i], f)
					return true
				})
				if err == nil {
					err = emitErr
				}
				errs[i] = err
			}
		}()
	}
	// The barrier always joins every worker — also on abort, so no
	// goroutine outlives the round (workers notice a tripped budget at
	// their next amortized poll or emit and drain quickly).
	wg.Wait()
	me.ParRounds++

	for i := range tasks {
		me.ev.Derivations += evs[i].Derivations
		me.ev.Attempts += evs[i].Attempts
		me.ev.HashProbes += evs[i].HashProbes
		me.ev.BCRuns += evs[i].BCRuns
	}
	// A failed round merges nothing: the head relations still hold exactly
	// their round-start prefixes, so the abort leaves no torn round and the
	// buffered results are simply discarded.
	for i := range tasks {
		if errs[i] != nil {
			me.fail(errs[i])
			return false
		}
	}

	// Single-writer merge in task order == sequential emission order. The
	// inserts bypass me.insert: parallel rounds never run under Ordered
	// Search (workersFor), and the workers already charged these facts
	// against the budget, so counting them again would double-bill.
	for i := range tasks {
		head := me.st.rel(tasks[i].c.HeadPred)
		for _, f := range results[i] {
			head.Insert(f)
		}
	}
	for ri, c := range st.RecRules {
		last := me.lastMarks[c]
		for pred, mk := range ruleNows[ri] {
			last[pred] = mk
		}
	}
	return me.totalFacts(st) > before
}

// splitVersion turns one delta version of rule c into chunk tasks by
// restricting the version's outermost relation item — the first ItemRel in
// the body, everything before it being single-shot builtins or negations —
// to subranges of the ordinal range the semi-naive discipline assigns it.
// Every derivation consumes exactly one tuple of the outermost item, so
// the chunks partition the version's output with no duplicated scanning.
func (me *matEval) splitVersion(c *Compiled, rr ruleRanges, workers int) []parTask {
	pos := -1
	for i := range c.Body {
		if c.Body[i].Kind == ItemRel {
			pos = i
			break
		}
	}
	if pos < 0 {
		return []parTask{{c: c, rr: rr}}
	}
	it := &c.Body[pos]
	src, err := me.st.source(it.Pred)
	if err != nil {
		return []parTask{{c: c, rr: rr}}
	}
	// Range assignment follows the written occurrence (OrigPos), as in
	// lookupFor: the planner may have moved the item, but its semi-naive
	// range is fixed by where it was written (scanBounds, hashjoin.go).
	from, to := scanBounds(it, rr, src)
	size := int(to - from)
	chunks := workers
	if max := size / parMinChunk; chunks > max {
		chunks = max
	}
	if chunks <= 1 {
		return []parTask{{c: c, rr: rr}}
	}
	out := make([]parTask, 0, chunks)
	for i := 0; i < chunks; i++ {
		nrr := rr
		nrr.Split = &splitRange{
			Pos:  pos,
			From: from + relation.Mark(i*size/chunks),
			To:   from + relation.Mark((i+1)*size/chunks),
		}
		out = append(out, parTask{c: c, rr: nrr})
	}
	return out
}
