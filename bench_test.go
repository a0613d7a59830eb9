package coral

// One testing.B benchmark per experiment table (E01–E16, DESIGN.md §3).
// The benchmarks exercise the same code paths as cmd/coralbench but at
// fixed, benchmark-friendly sizes; run the command for the full sweep
// tables recorded in EXPERIMENTS.md.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"coral/internal/ast"
	"coral/internal/engine"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/storage"
	"coral/internal/term"
	"coral/internal/workload"
)

// benchBase returns the in-memory base relation, failing the benchmark on
// a representation conflict.
func benchBase(b *testing.B, sys *engine.System, name string, arity int) *relation.HashRelation {
	b.Helper()
	rel, err := sys.BaseRelation(name, arity)
	if err != nil {
		b.Fatal(err)
	}
	return rel
}

// benchSystem consults source into an engine system, failing the benchmark
// on error.
func benchSystem(b *testing.B, src string) *engine.System {
	b.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	sys := engine.NewSystem()
	for _, f := range u.Facts {
		benchBase(b, sys, f.Pred, len(f.Args)).Insert(relation.NewFact(f.Args, nil))
	}
	for _, m := range u.Modules {
		if err := sys.AddModule(m); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

func benchCall(b *testing.B, sys *engine.System, pred string, args ...term.Term) {
	b.Helper()
	stats, err := sys.MeasureCall(ast.PredKey{Name: pred, Arity: len(args)}, args)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Answers == 0 {
		b.Fatal("no answers")
	}
}

func BenchmarkE01NaiveVsSeminaive(b *testing.B) {
	facts := workload.Chain(64)
	for _, mode := range []struct{ name, ann string }{
		{"naive", "@naive.\n@rewrite none."},
		{"seminaive", "@rewrite none."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.TCModule(mode.ann))
				benchCall(b, sys, "tc", term.NewVar("X"), term.NewVar("Y"))
			}
		})
	}
}

func BenchmarkE02BSNvsPSN(b *testing.B) {
	facts := workload.Chain(32)
	for _, mode := range []struct{ name, ann string }{
		{"bsn", "@bsn.\n@rewrite none."},
		{"psn", "@psn.\n@rewrite none."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.MutualRecursion(6, mode.ann))
				benchCall(b, sys, "p0", term.NewVar("X"), term.NewVar("Y"))
			}
		})
	}
}

func BenchmarkE03MagicVariants(b *testing.B) {
	const depth = 7
	facts := workload.Tree(2, depth)
	deepNode := (1<<(depth+1)-1)/2 - 1 // last internal node: cone of 2 leaves
	for _, mode := range []struct{ name, ann string }{
		{"none", "@rewrite none."},
		{"magic", "@rewrite magic."},
		{"supmagic", ""},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.TCModule(mode.ann))
				benchCall(b, sys, "tc", term.Int(int64(deepNode)), term.NewVar("Y"))
			}
		})
	}
}

func BenchmarkE04PipelineVsMaterialize(b *testing.B) {
	var src string
	k := 9
	for i := 0; i < k; i++ {
		base := 3 * i
		src += fmt.Sprintf("edge(%d, %d). edge(%d, %d). edge(%d, %d). edge(%d, %d).\n",
			base, base+1, base, base+2, base+1, base+3, base+2, base+3)
	}
	for _, mode := range []struct{ name, ann string }{
		{"pipelined", "@pipelining."},
		{"materialized", ""},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, src+workload.TCModule(mode.ann))
				benchCall(b, sys, "tc", term.Int(0), term.Int(3*k))
			}
		})
	}
}

func BenchmarkE05ShortestPath(b *testing.B) {
	for _, V := range []int{24, 48} {
		facts := workload.WeightedGraph(V, 4*V, 10, int64(V))
		b.Run(fmt.Sprintf("V=%d", V), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.ShortestPathModule("@ordered_search."))
				benchCall(b, sys, "s_p", term.Int(0), term.NewVar("Y"), term.NewVar("P"), term.NewVar("C"))
			}
		})
	}
}

// BenchmarkE05Par compares sequential and parallel BSN rounds on the E05
// weighted-graph workload. The shortest-path program itself runs under
// Ordered Search — an inherently sequential control strategy — so the
// parallel arm evaluates the BSN-parallelizable reachability closure over
// the same graphs (workload.ReachModule). The par arm uses Parallelism=0
// (all of GOMAXPROCS): run with -cpu=4 to give the worker pool cores; on
// a single hardware thread the two arms measure the pool's overhead.
func BenchmarkE05Par(b *testing.B) {
	for _, V := range []int{96} {
		facts := workload.WeightedGraph(V, 4*V, 10, int64(V))
		for _, mode := range []struct {
			name string
			par  int
		}{
			{"seq", 1},
			{"par", 0},
		} {
			b.Run(fmt.Sprintf("V=%d/%s", V, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				sys := benchSystem(b, facts+workload.ReachModule("@rewrite none."))
				sys.Parallelism = mode.par
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchCall(b, sys, "reach", term.NewVar("X"), term.NewVar("Y"))
				}
			})
		}
	}
}

// BenchmarkE18BudgetOverhead measures the cost of budget/cancellation
// checks on the E05 shortest-path workload: the off arm runs with the zero
// Budget (no guard installed, today's fast path), the on arm with limits
// high enough never to trip, so every amortized check in the join loop and
// every round-barrier check executes. The acceptance bar is <2% ns/op and
// an identical allocs/op count.
func BenchmarkE18BudgetOverhead(b *testing.B) {
	const V = 48
	facts := workload.WeightedGraph(V, 4*V, 10, int64(V))
	for _, mode := range []struct {
		name   string
		budget engine.Budget
	}{
		{"off", engine.Budget{}},
		{"on", engine.Budget{Timeout: time.Hour, MaxFacts: 1 << 40, MaxIterations: 1 << 30}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.ShortestPathModule("@ordered_search."))
				sys.Budget = mode.budget
				benchCall(b, sys, "s_p", term.Int(0), term.NewVar("Y"), term.NewVar("P"), term.NewVar("C"))
			}
		})
	}
}

func BenchmarkE06IndexVsScan(b *testing.B) {
	facts := workload.RandomGraph(150, 450, 11)
	for _, mode := range []struct{ name, ann string }{
		{"indexed", "@rewrite none."},
		{"scan", "@rewrite none.\n@no_indexing."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.TCModule(mode.ann))
				benchCall(b, sys, "tc", term.Int(0), term.NewVar("Y"))
			}
		})
	}
}

func BenchmarkE07PatternIndex(b *testing.B) {
	src := workload.Employees(4000, 50)
	query := func(i int) []term.Term {
		return []term.Term{
			term.Atom(fmt.Sprintf("name%d", i)),
			term.NewFunctor("addr", term.NewVar("S"), term.Atom(fmt.Sprintf("city%d", i%50))),
		}
	}
	run := func(b *testing.B, rel *relation.HashRelation) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := rel.Lookup(query(i%4000), nil)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		}
	}
	b.Run("patternindex", func(b *testing.B) {
		b.ReportAllocs()
		sys := benchSystem(b, src)
		rel := benchBase(b, sys, "emp", 2)
		rel.MakePatternIndex([]term.Term{term.NewVar("Name"),
			term.NewFunctor("addr", term.NewVar("Street"), term.NewVar("City"))},
			[]string{"Name", "City"})
		run(b, rel)
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		sys := benchSystem(b, src)
		run(b, benchBase(b, sys, "emp", 2))
	})
}

func BenchmarkE08HashConsing(b *testing.B) {
	deep := workload.DeepTerm(14, 1)
	deep2 := workload.DeepTerm(14, 1)
	term.GroundID(deep.(*term.Functor))
	term.GroundID(deep2.(*term.Functor))
	var tr term.Trail
	b.Run("hashconsed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !term.Unify(deep, nil, deep2, nil, &tr) {
				b.Fatal("unify failed")
			}
		}
	})
	b.Run("structural", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !term.UnifyStructural(deep, nil, deep2, nil, &tr) {
				b.Fatal("unify failed")
			}
		}
	})
}

func BenchmarkE09SaveModule(b *testing.B) {
	facts := workload.Chain(80)
	for _, mode := range []struct{ name, ann string }{
		{"discard", ""},
		{"save", "@save_module."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := benchSystem(b, facts+workload.TCModule(mode.ann))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCall(b, sys, "tc", term.Int(0), term.NewVar("Y"))
			}
		})
	}
}

func BenchmarkE10OrderedSearch(b *testing.B) {
	moves := workload.WinGameMoves(60, 3, 4, 60)
	b.Run("orderedsearch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := benchSystem(b, moves+workload.WinModule("@ordered_search."))
			stats, err := sys.MeasureCall(ast.PredKey{Name: "win", Arity: 1}, []term.Term{term.Atom("p0")})
			if err != nil {
				b.Fatal(err)
			}
			_ = stats
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := benchSystem(b, moves+workload.WinModule("@pipelining."))
			if _, err := sys.MeasureCall(ast.PredKey{Name: "win", Arity: 1}, []term.Term{term.Atom("p0")}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE11Existential(b *testing.B) {
	facts := workload.RandomGraph(80, 400, 3)
	b.Run("observed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := benchSystem(b, facts+workload.TCModule(""))
			benchCall(b, sys, "tc", term.Int(0), term.NewVar("Y"))
		}
	})
	b.Run("existential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := benchSystem(b, facts+workload.TCModule(""))
			benchCall(b, sys, "tc", term.Int(0), term.NewVar(""))
		}
	})
}

func BenchmarkE12LazyEval(b *testing.B) {
	facts := workload.Chain(200)
	for _, mode := range []struct{ name, ann string }{
		{"lazy", ""},
		{"eager", "@eager."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.TCModule(mode.ann))
				if _, err := sys.MeasureFirstAnswer(ast.PredKey{Name: "tc", Arity: 2},
					[]term.Term{term.Int(0), term.NewVar("Y")}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE13Factoring(b *testing.B) {
	facts := workload.Grid(14, 14)
	for _, mode := range []struct{ name, ann string }{
		{"supmagic", ""},
		{"factoring", "@rewrite factoring."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.RightLinearTC(mode.ann))
				benchCall(b, sys, "tc", term.Int(0), term.NewVar("Y"))
			}
		})
	}
}

func BenchmarkE14Multiset(b *testing.B) {
	facts := workload.RandomGraph(50, 400, 5)
	mod := func(ann string) string {
		return "module j.\nexport hop2(ff).\n" + ann +
			"hop2(X, Z) :- edge(X, Y), edge(Y, Z).\nend_module.\n"
	}
	for _, mode := range []struct{ name, ann string }{
		{"set", ""},
		{"multiset", "@multiset hop2."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+mod(mode.ann))
				benchCall(b, sys, "hop2", term.NewVar("X"), term.NewVar("Z"))
			}
		})
	}
}

func BenchmarkE15Persistent(b *testing.B) {
	for _, frames := range []int{8, 256} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			b.ReportAllocs()
			db, err := storage.Open(filepath.Join(b.TempDir(), "bench.cdb"), frames)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			rel, err := db.Relation("edge", 2)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 8000; i++ {
				rel.Insert(relation.GroundFact(term.Int(int64(i)), term.Int(int64(i+1))))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := rel.Scan()
				for {
					if _, ok := it.Next(); !ok {
						break
					}
				}
			}
			b.ReportMetric(float64(db.Stats().PageReads)/float64(b.N), "pagereads/op")
		})
	}
}

func BenchmarkE16ConsultAndRun(b *testing.B) {
	src := workload.Chain(60) + workload.TCModule("")
	b.Run("consult", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u, err := parser.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			sys := engine.NewSystem()
			for _, f := range u.Facts {
				benchBase(b, sys, f.Pred, len(f.Args)).Insert(relation.NewFact(f.Args, nil))
			}
			for _, m := range u.Modules {
				if err := sys.AddModule(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("evaluate", func(b *testing.B) {
		b.ReportAllocs()
		sys := benchSystem(b, src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchCall(b, sys, "tc", term.Int(0), term.NewVar("Y"))
		}
	})
}

// BenchmarkE17JoinPlan measures the cost-based join planner (DESIGN.md
// §5.10) on a cross-product-prone 3-literal rule: the written order joins
// big1 × big2 (quadratic) before link constrains anything; the planned
// order drives the join through link (linear). The written-order arm went
// with the planner's switch (EXPERIMENTS.md E17 keeps its numbers; the
// deterministic gate is engine.TestPlannerFasterOnCrossProduct).
func BenchmarkE17JoinPlan(b *testing.B) {
	var facts string
	n := 180
	for i := 0; i < n; i++ {
		facts += fmt.Sprintf("big1(a%d, b%d).\nbig2(c%d, v%d).\n", i, i, i, i%4)
	}
	for i := 0; i < n; i += 8 {
		facts += fmt.Sprintf("link(b%d, c%d).\n", i, i)
	}
	mod := `
module m.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), link(Y, Z).
end_module.
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCall(b, benchSystem(b, facts+mod), "q", term.NewVar("X"), term.NewVar("W"))
	}
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out ---

// Intelligent backtracking (paper §4.2): backjumping over positions that
// cannot fix a zero-solution failure.
func BenchmarkAblationBacktracking(b *testing.B) {
	facts := workload.RandomGraph(120, 240, 21) + "needle(119).\n"
	mod := func(ann string) string {
		return `
module m.
export q(ff).
` + ann + `
q(X, N) :- edge(X, Y), needle(N), edge(N, Z), edge(Z, W).
end_module.
`
	}
	for _, mode := range []struct{ name, ann string }{
		{"intelligent", ""},
		{"chronological", "@chronological_backtracking."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+mod(mode.ann))
				if _, err := sys.MeasureCall(ast.PredKey{Name: "q", Arity: 2},
					[]term.Term{term.NewVar("X"), term.NewVar("N")}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Join order selection (paper §4.2): @reorder vs source order on a rule
// whose selective literals come last.
func BenchmarkAblationJoinOrder(b *testing.B) {
	facts := workload.RandomGraph(200, 1000, 31) + "pick(7).\n"
	mod := func(ann string) string {
		return `
module m.
export q(b).
` + ann + `
q(P) :- edge(X, Y), edge(Y, Z), pick(P), edge(P, X).
end_module.
`
	}
	for _, mode := range []struct{ name, ann string }{
		{"sourceorder", ""},
		{"reorder", "@reorder."},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+mod(mode.ann))
				if _, err := sys.MeasureCall(ast.PredKey{Name: "q", Arity: 1},
					[]term.Term{term.Int(7)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Supplementary predicates (paper §4.1): plain magic recomputes rule-body
// prefixes per magic rule; supplementary magic shares them.
func BenchmarkAblationSupplementary(b *testing.B) {
	facts := workload.Grid(16, 16)
	for _, mode := range []struct{ name, ann string }{
		{"magic", "@rewrite magic."},
		{"supmagic", ""},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+workload.TCModule(mode.ann))
				benchCall(b, sys, "tc", term.Int(0), term.NewVar("Y"))
			}
		})
	}
}

// Subsumption checking (paper §4.2): insert-time duplicate detection cost
// on a duplicate-free workload (pure overhead measurement).
func BenchmarkAblationDuplicateCheck(b *testing.B) {
	n := 20000
	b.Run("set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel := relation.NewHashRelation("p", 2)
			for j := 0; j < n; j++ {
				rel.Insert(relation.GroundFact(term.Int(int64(j)), term.Int(int64(j+1))))
			}
		}
	})
	b.Run("multiset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel := relation.NewHashRelation("p", 2)
			rel.Multiset = true
			for j := 0; j < n; j++ {
				rel.Insert(relation.GroundFact(term.Int(int64(j)), term.Int(int64(j+1))))
			}
		}
	})
}

// BenchmarkE19FlowOptimization prices the whole-program flow analysis'
// optimizations on an all-free transitive closure (DESIGN.md §5.12): with
// the analysis on, every reachable context calls tc free-free, so magic
// rewriting is skipped and the pruned original rules evaluate directly.
// The module also carries a dead mutual-recursion cycle the analysis
// prunes. (The pre-analysis arm went with the optimizations' switch;
// EXPERIMENTS.md E19 keeps its numbers.)
func BenchmarkE19FlowOptimization(b *testing.B) {
	facts := workload.RandomGraph(96, 240, 1)
	mod := `
module m.
export tc(ff).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
dead(X, Y) :- deader(X, Y), tc(X, Y).
deader(X, Y) :- dead(X, Y).
end_module.
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCall(b, benchSystem(b, facts+mod), "tc", term.NewVar("X"), term.NewVar("Y"))
	}
}

// BenchmarkE20ColdStartPlan prices planner cold-start seeding (DESIGN.md
// §5.13) on a rule whose only selective literal is a module-call export:
// q joins two unrelated base relations with ok/2, a tiny export that
// keeps no live statistics. A cold planner without the static estimate
// would price ok/2 at the unknown-source default (2^20 rows) and schedule
// it last — a big1 × big2 cross product probed through the module boundary
// (EXPERIMENTS.md E20 keeps that arm's numbers). Seeding prices ok/2 from
// the callee's static estimate (an exact passthrough of linkbase/2, whose
// live count is known), so the very first plan drives the join from it.
func BenchmarkE20ColdStartPlan(b *testing.B) {
	var facts string
	n := 180
	for i := 0; i < n; i++ {
		facts += fmt.Sprintf("big1(a%d, b%d).\nbig2(c%d, v%d).\n", i, i, i, i%4)
	}
	for i := 0; i < n; i += 8 {
		facts += fmt.Sprintf("linkbase(b%d, c%d).\n", i, i)
	}
	mods := `
module tiny.
export ok(ff).
ok(Y, Z) :- linkbase(Y, Z).
end_module.
module outer.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), ok(Y, Z).
end_module.
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCall(b, benchSystem(b, facts+mods), "q", term.NewVar("X"), term.NewVar("W"))
	}
}

// BenchmarkE21HashJoin runs transitive closures dense enough for the
// planner to adopt the hash mark (the deterministic gate is
// engine.TestPlannerPicksHashJoin) with and without the optimizer's
// persistent indexes: under @no_indexing a build table is the only keyed
// access there is, which is where hash marks pay; with indexes the two
// access paths enumerate the same candidates and the mark is near neutral
// (EXPERIMENTS.md E21, E24). The right-linear rule probes the full base
// relation per delta tuple; the doubly recursive rule probes its own
// relation from both delta versions.
func BenchmarkE21HashJoin(b *testing.B) {
	facts := workload.RandomGraph(48, 320, 11)
	mod := func(ann, rec string) string {
		return "module m.\nexport p(ff).\n@rewrite none.\n" + ann +
			"p(X, Y) :- edge(X, Y).\np(X, Y) :- " + rec + ".\nend_module.\n"
	}
	for _, w := range []struct{ name, rec string }{
		{"linear", "p(X, Z), edge(Z, Y)"},
		{"sym", "p(X, Z), p(Z, Y)"},
	} {
		for _, ix := range []struct{ name, ann string }{
			{"noindex", "@no_indexing.\n"},
			{"indexed", ""},
		} {
			b.Run(w.name+"/"+ix.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchCall(b, benchSystem(b, facts+mod(ix.ann, w.rec)), "p", term.NewVar("X"), term.NewVar("Y"))
				}
			})
		}
	}
}

// BenchmarkE22Bytecode runs the three workloads the register bytecode
// machine (DESIGN.md §5.15) was measured on. The interpreter arm went with
// the machine's switch; EXPERIMENTS.md E22 and E24 keep the comparison.
//
// reach is the E05 reachability closure: two-literal rules the streaming
// hash-join layer already handles, so the bytecode margin there is small
// and honest. spath is E05 shortest path under an aggregate selection.
// arith is the workload the machine exists for — a three-literal
// recursion with an arithmetic assignment and a bound comparison per
// candidate, where the interpreter walks terms, allocates environment
// bindings and re-classifies the expression for every tuple while the
// machine runs flat opcodes over unboxed integers.
func BenchmarkE22Bytecode(b *testing.B) {
	reachFacts := workload.WeightedGraph(48, 192, 10, 48)
	spathFacts := workload.WeightedGraph(24, 96, 10, 24)
	arithFacts := workload.WeightedGraph(32, 640, 10, 22)
	arith := `
module m.
export cost(fff).
@rewrite none.
cost(X, Y, C) :- edge(X, Y, W), C = W.
cost(X, Y, C) :- cost(X, Z, C1), edge(Z, Y, W), C = C1 + W, C < 16.
end_module.
`
	workloads := []struct {
		name, src, pred string
		args            []term.Term
	}{
		{"reach", reachFacts + workload.ReachModule(""), "reach",
			[]term.Term{term.NewVar("X"), term.NewVar("Y")}},
		{"spath", spathFacts + workload.ShortestPathModule("@ordered_search."), "s_p",
			[]term.Term{term.Int(0), term.NewVar("Y"), term.NewVar("P"), term.NewVar("C")}},
		{"arith", arithFacts + arith, "cost",
			[]term.Term{term.NewVar("X"), term.NewVar("Y"), term.NewVar("C")}},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCall(b, benchSystem(b, w.src), w.pred, w.args...)
			}
		})
	}
}
