package engine

import (
	"time"

	"coral/internal/ast"
	"coral/internal/term"
)

// RunStats reports what one evaluated call did — the quantities the
// benchmark harness tabulates alongside wall-clock time.
type RunStats struct {
	// Answers is the number of facts the scan returned.
	Answers int
	// Derivations counts successful rule-head instantiations.
	Derivations int
	// Attempts counts tuples considered across all join loops.
	Attempts int
	// Iterations counts fixpoint iterations.
	Iterations int
	// ParallelRounds counts the BSN rounds that ran on the worker pool
	// (0 under sequential evaluation or when a stratum is parallel-unsafe).
	ParallelRounds int
	// FactsStored sums the sizes of the evaluation's derived relations
	// (including magic and supplementary predicates).
	FactsStored int
	// HashJoinBuilds counts transient join build tables constructed, and
	// HashJoinProbes the scans served from one (hash-join access paths,
	// hashjoin.go). Both are 0 when the planner never found a profitable
	// mark.
	HashJoinBuilds int
	HashJoinProbes int
	// BytecodeRuns counts rule applications executed by the register
	// bytecode machine (bytecode.go); 0 when every rule is outside the
	// compiled fragment, every application's runtime prologue declined, or
	// the evaluation is traced or under Ordered Search.
	BytecodeRuns int
}

// add accumulates the counters of another run (per-query statistics sum the
// module-call evaluations a query triggered).
func (s RunStats) add(o RunStats) RunStats { return s.plus(o, 1) }

// sub removes a before-snapshot from accumulated counters (the delta one
// save-module call contributed).
func (s RunStats) sub(o RunStats) RunStats { return s.plus(o, -1) }

func (s RunStats) plus(o RunStats, k int) RunStats {
	s.Answers += k * o.Answers
	s.Derivations += k * o.Derivations
	s.Attempts += k * o.Attempts
	s.Iterations += k * o.Iterations
	s.ParallelRounds += k * o.ParallelRounds
	s.FactsStored += k * o.FactsStored
	s.HashJoinBuilds += k * o.HashJoinBuilds
	s.HashJoinProbes += k * o.HashJoinProbes
	s.BytecodeRuns += k * o.BytecodeRuns
	return s
}

// MeasureCall evaluates pred(args) to completion and reports statistics.
// Materialized modules report full engine counters; pipelined modules
// report answer counts only (they store nothing, which is the point).
func (sys *System) MeasureCall(pred ast.PredKey, args []term.Term) (RunStats, error) {
	def, ok := sys.Export(pred)
	if !ok {
		return RunStats{}, errUnknownExport(pred)
	}
	it, err := def.Call(pred, args, nil)
	if err != nil {
		return RunStats{}, err
	}
	var stats RunStats
	err = drainCounting(it, &stats)
	// Fill the engine counters even when the drain aborted: the partial
	// stats are exactly what AbortError reports, and callers measuring a
	// budgeted run want them either way.
	if scan, isMat := it.(*answerScan); isMat {
		answers := stats.Answers
		stats = scan.me.counters()
		stats.Answers = answers
	}
	return stats, err
}

// MeasureFirstAnswer times the latency to the first answer of a call —
// the lazy-evaluation and pipelining experiments' metric (paper §5.4.3).
func (sys *System) MeasureFirstAnswer(pred ast.PredKey, args []term.Term) (time.Duration, error) {
	def, ok := sys.Export(pred)
	if !ok {
		return 0, errUnknownExport(pred)
	}
	start := time.Now()
	it, err := def.Call(pred, args, nil)
	if err != nil {
		return 0, err
	}
	var stats RunStats
	err = firstCounting(it, &stats)
	return time.Since(start), err
}

func firstCounting(it relationIterator, stats *RunStats) (err error) {
	defer recoverEval(&err)
	if _, ok := it.Next(); ok {
		stats.Answers = 1
	}
	return nil
}

func drainCounting(it relationIterator, stats *RunStats) (err error) {
	defer recoverEval(&err)
	// lint:allow scanloop — measurement driver above the evaluation: the
	// iterator it drains performs its own budget polling.
	for {
		_, ok := it.Next()
		if !ok {
			return nil
		}
		stats.Answers++
	}
}

// relationIterator avoids an import cycle in the signature above.
type relationIterator interface{ Next() (Fact, bool) }

func errUnknownExport(pred ast.PredKey) error {
	return &unknownExportError{pred}
}

type unknownExportError struct{ pred ast.PredKey }

func (e *unknownExportError) Error() string {
	return "engine: no module exports " + e.pred.String()
}
