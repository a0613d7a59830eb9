package engine

import (
	"sync"
	"sync/atomic"

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
// restricted to an ordinal chunk of its outermost relation item.
type parTask struct {
	v  *schedVersion
	rr ruleRanges
}

// workersFor is the round's dispatch decision: how many workers the round
// the schedule has just snapshotted may use. The pool needs a worker budget
// (configureEval), a delta that fills at least two chunks — a smaller round
// costs less to run than to hand out — and a stratum that passes the safety
// analysis; any other round runs inline on the caller's goroutine.
func (me *matEval) workersFor(rs *roundSched) int {
	if me.parallelism <= 1 {
		return 1
	}
	for i := range rs.versions {
		v := &rs.versions[i]
		if int(rs.start[v.slot]-v.rule.last[v.slot]) < 2*parMinChunk {
			continue
		}
		if !rs.parChecked {
			rs.parChecked, rs.parSafe = true, me.checkParallelSafe(rs.st)
		}
		if rs.parSafe {
			return me.parallelism
		}
		break
	}
	return 1
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
				if _, ok := s.r.(*relation.HashRelation); !ok {
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

// runPool runs the round's versions on the worker pool and merges their
// output. It reports the first failed task's error, having merged nothing.
func (me *matEval) runPool(rs *roundSched, workers int) error {
	// The round prologue has planned every version and created the indexes
	// its schedule probes (planRule); workers only read them. The split
	// position follows the delta literal to its planned slot.
	var tasks []parTask
	for i := range rs.versions {
		tasks = me.splitVersion(tasks, &rs.versions[i], workers)
	}

	// Workers pull tasks from a shared cursor. Each worker has a private
	// evaluator (evaluators carry per-activation state) and each task a
	// private output buffer; nothing shared is written until the barrier.
	// Workers share the call's budget guard: each polls the context and
	// deadline amortized through its evaluator, and buffered emits are
	// charged against the shared atomic fact counter — so a round that would
	// buffer far past MaxFacts stops in the worker phase, not at the merge.
	// Emits the merge later rejects as duplicates stay charged (a small
	// overshoot; workers pre-filter most duplicates anyway).
	results := make([][]Fact, len(tasks))
	errs := make([]error, len(tasks))
	if workers > len(tasks) {
		workers = len(tasks)
	}
	// Each evaluator is its own allocation: side by side in one slice, one
	// worker's per-tuple counter writes would share a cache line with fields
	// its neighbour reads per derivation.
	evs := make([]*evaluator, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := range evs {
		evs[w] = &evaluator{evalConfig: me.ev.evalConfig}
		wg.Add(1)
		go func(ev *evaluator) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				errs[i] = me.runTask(ev, rs, &tasks[i], &results[i])
			}
		}(evs[w])
	}
	// The barrier always joins every worker — also on abort, so no
	// goroutine outlives the round (workers notice a tripped budget at
	// their next amortized poll or emit and drain quickly).
	wg.Wait()
	me.ParRounds++

	for w := range evs {
		me.ev.add(evs[w].evalCounters)
	}
	// A failed round merges nothing: the head relations still hold exactly
	// their round-start prefixes, so the abort leaves no torn round and the
	// buffered results are simply discarded.
	for _, terr := range errs {
		if terr != nil {
			return terr
		}
	}
	// Single-writer merge in task order == sequential emission order. The
	// inserts bypass me.insert: parallel rounds never run under Ordered
	// Search (configureEval), and the workers already charged these facts
	// against the budget, so counting them again would double-bill.
	for i := range tasks {
		head := rs.rels[tasks[i].v.rule.c.HeadSlot]
		for _, f := range results[i] {
			head.Insert(f)
		}
	}
	return nil
}

// runTask evaluates one task on a worker's evaluator, buffering its
// derivations in out. A derivation that duplicates (or is subsumed by) a
// live fact below the head's round-start mark would be rejected by the merge
// no matter what else the round inserts, so the worker drops it early —
// moving most duplicate elimination off the serial merge and into the
// parallel phase. The head relation is frozen during the worker phase
// (single-writer merge happens after the barrier), so both the probe and
// DuplicateWithin are read-only, Mark-bounded and race-free. Multiset heads
// keep every derivation.
func (me *matEval) runTask(ev *evaluator, rs *roundSched, t *parTask, out *[]Fact) error {
	r := t.v.rule
	head, snap := rs.rels[r.c.HeadSlot], rs.start[r.c.HeadSlot]
	ev.headDup = r.dup // nil for a multiset head
	var emitErr error
	err := ev.evalRule(t.v.plan, &t.rr, func(f Fact) bool {
		if r.dup != nil && head.DuplicateWithin(f, snap) {
			return true // merge would reject it; drop in parallel
		}
		if emitErr = ev.guard.addFact(); emitErr != nil {
			return false // budget tripped: stop this task cleanly
		}
		*out = append(*out, f)
		return true
	})
	if err == nil {
		err = emitErr
	}
	return err
}

// splitVersion appends one delta version's chunk tasks, made by
// restricting the version's outermost relation item — the first ItemRel in
// the body, everything before it being single-shot builtins or negations —
// to subranges of the ordinal range the semi-naive discipline assigns it.
// Every derivation consumes exactly one tuple of the outermost item, so
// the chunks partition the version's output with no duplicated scanning.
func (me *matEval) splitVersion(tasks []parTask, v *schedVersion, workers int) []parTask {
	c, rr := v.plan, v.rr
	pos := 0
	for pos < len(c.Body) && c.Body[pos].Kind != ItemRel {
		pos++
	}
	var from, to relation.Mark
	size, chunks := 0, 0
	if pos < len(c.Body) {
		if src, err := me.st.source(c.Body[pos].Pred); err == nil {
			// Range assignment follows the written occurrence (OrigPos), as
			// in openScan: the planner may have moved the item, but its
			// semi-naive range is fixed by where it was written (scanBounds).
			from, to = scanBounds(&c.Body[pos], &rr, src)
			size = int(to - from)
			chunks = min(workers, size/parMinChunk)
		}
	}
	if chunks <= 1 {
		return append(tasks, parTask{v: v, rr: rr})
	}
	for i := 0; i < chunks; i++ {
		nrr := rr
		nrr.Split = &splitRange{
			Pos:  pos,
			From: from + relation.Mark(i*size/chunks),
			To:   from + relation.Mark((i+1)*size/chunks),
		}
		tasks = append(tasks, parTask{v: v, rr: nrr})
	}
	return tasks
}
