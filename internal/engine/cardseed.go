package engine

import (
	"math"

	"coral/internal/analysis/card"
	"coral/internal/ast"
	"coral/internal/relation"
)

// Planner cold-start seeding from the compile-time cardinality analysis.
//
// The cost-based planner (plan.go) prices joins from live relation
// statistics, which are empty before the first fixpoint round: every
// derived relation reports zero rows and every module-call source reports
// nothing at all, so the first plans of an evaluation are fitted blind.
// The static analysis (analysis/card) bounds rows and per-position value
// domains from rule shape and consulted base relations, so its estimates
// serve as the prior: bodyStats falls back to them exactly where live
// statistics are absent (module calls, computed sources) or still zero
// (derived relations before their first round). Live statistics take over
// on their own — the plan cache invalidates on row-count drift, and a
// re-fit sees the now-populated relations.
//
// The same analysis result carries the static fixpoint round bound, which
// annotates iteration-budget aborts ("statically expected ≤ N rounds") —
// see matEval.annotateAbort.

// cardResult aliases the analysis result so ModuleDef's cache field does
// not pull the card import into system.go.
type cardResult = card.Result

// staticSeeder lazily computes the cardinality analysis for one program.
// It is created per evaluation (configureEval) and computes on first use —
// an evaluation whose plans never hit a cold or statistics-free source pays
// nothing.
type staticSeeder struct {
	sys  *System
	prog *Program
	res  *card.Result
	done bool
}

// compute runs the analysis over the rewritten rules once. Aggregate
// selections are mapped through OrigName so the adorned variants of
// selected predicates keep their growth exemption (§5.5.2).
func (ss *staticSeeder) compute() {
	if ss.done {
		return
	}
	ss.done = true
	if len(ss.prog.RewrittenRules) == 0 {
		return
	}
	selected := make(map[string]bool)
	for key, orig := range ss.prog.OrigName {
		if orig != "" && len(ss.prog.AggSels[orig]) > 0 {
			selected[key.Name] = true
		}
	}
	ss.res = card.EstimateRules(ss.prog.RewrittenRules, card.Options{
		BaseRows:    ss.sys.staticOracle(0, nil),
		NegFree:     !ss.prog.OrderedSearch,
		AggSelected: selected,
	})
}

// stats returns the static estimate for a body source as planner
// statistics: derived predicates of the program from the analysis result,
// module exports from the callee's own static estimate. ok is false on a
// nil seeder, an unbounded estimate, or a predicate the analysis does not
// cover (live base relations keep their live statistics; bodyStats never
// asks for those here).
func (ss *staticSeeder) stats(pred ast.PredKey) (relation.Stats, bool) {
	if ss == nil {
		return relation.Stats{}, false
	}
	ss.compute()
	if ss.res != nil {
		if rows, ok := ss.res.Est.Rows[pred]; ok {
			return statsFromEstimate(rows, ss.res.Est.Dom[pred])
		}
	}
	return ss.sys.exportStaticStats(pred, 0, nil)
}

// iterBound returns the static fixpoint round bound of the program
// (math.Inf(1) when unbounded, unknown, or the seeder is nil).
func (ss *staticSeeder) iterBound() float64 {
	if ss == nil {
		return math.Inf(1)
	}
	ss.compute()
	if ss.res == nil {
		return math.Inf(1)
	}
	return ss.res.IterBound
}

// staticOracle resolves base-relation statistics for the analysis: live
// counts for in-memory base relations, static estimates for module exports
// (an inter-module call is a join source too, and the planner otherwise
// prices it at unknownRows). depth bounds the export-estimate recursion;
// visited carries the modules already on the estimation stack (cycle break).
func (sys *System) staticOracle(depth int, visited map[*ModuleDef]bool) card.BaseOracle {
	return func(key ast.PredKey) (int, []int, bool) {
		if r, ok := sys.Relation(key); ok {
			if hr, isHash := r.(*relation.HashRelation); isHash {
				st := hr.Stats()
				return st.Rows, st.Distinct, true
			}
			return 0, nil, false // computed/persistent: no static statistics
		}
		if st, ok := sys.exportStaticStats(key, depth, visited); ok {
			return st.Rows, st.Distinct, true
		}
		return 0, nil, false
	}
}

// exportStaticStats estimates the rows behind an exported predicate by
// running the analysis over the exporting module's source rules (original
// predicate names, so the export key resolves directly). The result is
// cached on the ModuleDef — estimates of a callee are the same whichever
// caller asks — under def.mu, with the analysis itself run outside the lock
// (two racing callers may both estimate; the first store wins). The visited
// set, threaded through the oracle, breaks estimate cycles between modules
// without shared mutable marker state.
func (sys *System) exportStaticStats(key ast.PredKey, depth int, visited map[*ModuleDef]bool) (relation.Stats, bool) {
	def, ok := sys.Export(key)
	if !ok || depth > 3 || visited[def] {
		return relation.Stats{}, false
	}
	def.mu.Lock()
	est := def.staticEst
	def.mu.Unlock()
	if est == nil {
		if visited == nil {
			visited = make(map[*ModuleDef]bool)
		}
		visited[def] = true
		selected := make(map[string]bool, len(def.Src.Ann.AggSels))
		for _, s := range def.Src.Ann.AggSels {
			selected[s.Pred] = true
		}
		est = card.EstimateRules(def.Src.Rules, card.Options{
			BaseRows:    sys.staticOracle(depth+1, visited),
			NegFree:     !def.Src.Ann.OrderedSearch,
			AggSelected: selected,
		})
		delete(visited, def)
		def.mu.Lock()
		if def.staticEst == nil {
			def.staticEst = est
		} else {
			est = def.staticEst
		}
		def.mu.Unlock()
	}
	rows, ok := est.Est.Rows[key]
	if !ok {
		return relation.Stats{}, false
	}
	return statsFromEstimate(rows, est.Est.Dom[key])
}

// statsFromEstimate converts a finite card estimate to planner statistics.
// Unbounded position domains become 0, which estCost maps to its default
// selectivity — the same treatment a position without a sketch gets.
func statsFromEstimate(rows float64, doms []float64) (relation.Stats, bool) {
	if math.IsInf(rows, 1) || rows != rows {
		return relation.Stats{}, false
	}
	st := relation.Stats{Rows: int(rows)}
	if len(doms) > 0 {
		st.Distinct = make([]int, len(doms))
		for i, d := range doms {
			if !math.IsInf(d, 1) {
				st.Distinct[i] = int(d)
			}
		}
	}
	return st, true
}
