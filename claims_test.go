package coral

// The paper publishes no performance tables (§9 defers "an extensive
// performance evaluation" to future work), so the reproduction's evidence is
// a set of directions: semi-naive derives less than naive, PSN needs fewer
// rounds than BSN, and so on. Every direction a deterministic counter can
// show is one row of TestPaperClaims. Claims only wall-clock time can show
// are measured by `bash bench/run.sh` (EXPERIMENTS.md, DESIGN.md §3).

import (
	"fmt"
	"path/filepath"
	"testing"

	"coral/internal/ast"
	"coral/internal/engine"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/storage"
	"coral/internal/term"
	"coral/internal/workload"
)

// A paperClaim is one claim as a direction: counter must read strictly less
// on the less arm than on the more arm.
type paperClaim struct {
	id, section, counter string
	less, more           claimArm
}

// A claimArm names one side of a claim and measures its counter.
type claimArm struct {
	name    string
	measure func(t *testing.T) float64
}

func TestPaperClaims(t *testing.T) {
	tree := workload.Tree(2, 5)
	const treeLeafParent = (1<<6-1)/2 - 1 // last internal node: a cone of two leaves
	boundTreeQuery := fmt.Sprintf("tc(%d, Y)", treeLeafParent)
	graph := workload.RandomGraph(60, 240, 3)
	hop2 := func(ann string) string {
		return workload.RandomGraph(40, 320, 5) + "module j.\nexport hop2(ff).\n" + ann +
			"hop2(X, Z) :- edge(X, Y), edge(Y, Z).\nend_module.\n"
	}
	cross, crossRows := crossProduct(120, "link")
	coldCross, _ := crossProduct(120, "linkbase")
	// The two ablations run under Ordered Search, the path that evaluates
	// rules in written order. Elsewhere the planner orders every body from
	// live statistics and neither annotation shows its claim; EXPERIMENTS.md
	// ("Direction tests") records what each does there.
	backtrack := func(ann string) string {
		return workload.RandomGraph(120, 240, 21) + "stop(5).\nmodule m.\nexport q(ff).\n@ordered_search.\n" + ann +
			"q(X, W) :- edge(X, Y), edge(V, W), stop(Y).\nend_module.\n"
	}
	joinOrder := func(ann string) string {
		return workload.RandomGraph(200, 1000, 31) + "pick(7).\nmodule m.\nexport q(b).\n@ordered_search.\n" + ann +
			"q(P) :- edge(X, Y), edge(Y, Z), pick(P), edge(P, X).\nend_module.\n"
	}

	diamonds := diamondChain(12)

	for _, c := range []paperClaim{
		{"E01", "§5.3", "Derivations",
			claimArm{"BSN", derivations(workload.Chain(32)+workload.TCModule("@rewrite none."), "tc(X, Y)")},
			claimArm{"naive", derivations(workload.Chain(32)+workload.TCModule("@naive.\n@rewrite none."), "tc(X, Y)")}},
		{"E02", "§4.2", "Iterations",
			claimArm{"PSN", iterations(workload.Chain(24)+workload.MutualRecursion(3, "@psn.\n@rewrite none."), "p0(X, Y)")},
			claimArm{"BSN", iterations(workload.Chain(24)+workload.MutualRecursion(3, "@bsn.\n@rewrite none."), "p0(X, Y)")}},
		{"E03", "§4.1", "FactsStored",
			claimArm{"supplementary magic", factsStored(tree+workload.TCModule(""), boundTreeQuery)},
			claimArm{"@rewrite none", factsStored(tree+workload.TCModule("@rewrite none."), boundTreeQuery)}},
		// Pipelining stores no facts; materialization stores them and so
		// does not recompute the subgoals a diamond chain shares.
		{"E04_stores_nothing", "§5, §5.2", "FactsStored",
			claimArm{"pipelined", factsStored(workload.Chain(32)+workload.TCModule("@pipelining."), "tc(0, Y)")},
			claimArm{"materialized", factsStored(workload.Chain(32)+workload.TCModule(""), "tc(0, Y)")}},
		{"E04_recomputes", "§5, §5.2", "Attempts",
			claimArm{"materialized", attempts(diamonds+workload.TCModule(""), "tc(0, 36)")},
			claimArm{"pipelined", attempts(diamonds+workload.TCModule("@pipelining."), "tc(0, 36)")}},
		{"E06", "§3.3, §5.3", "Attempts",
			claimArm{"indexed", attempts(graph+workload.TCModule("@rewrite none."), "tc(0, Y)")},
			claimArm{"@no_indexing", attempts(graph+workload.TCModule("@rewrite none.\n@no_indexing."), "tc(0, Y)")}},
		{"E09", "§5.4.2", "Derivations",
			claimArm{"repeat call", repeatCallDerivations(workload.Chain(60)+workload.TCModule("@save_module."), "tc(0, Y)")},
			claimArm{"first call", derivations(workload.Chain(60)+workload.TCModule("@save_module."), "tc(0, Y)")}},
		{"E11", "§4.1", "FactsStored",
			claimArm{"existential tc(0, _)", factsStored(graph+workload.TCModule(""), "tc(0, _)")},
			claimArm{"observed tc(0, Y)", factsStored(graph+workload.TCModule(""), "tc(0, Y)")}},
		{"E13", "§4.1", "FactsStored",
			claimArm{"factoring", factsStored(workload.Grid(12, 12)+workload.RightLinearTC("@rewrite factoring."), "tc(0, Y)")},
			claimArm{"supplementary magic", factsStored(workload.Grid(12, 12)+workload.RightLinearTC(""), "tc(0, Y)")}},
		{"E14", "§4.2", "Answers",
			claimArm{"set", answers(hop2(""), "hop2(X, Z)")},
			claimArm{"multiset", answers(hop2("@multiset hop2."), "hop2(X, Z)")}},
		{"E15", "§2, §3.2", "PoolStats.HitRatio",
			claimArm{"8 frames", poolHitRatio(8)},
			claimArm{"256 frames", poolHitRatio(256)}},
		{"E17", "§5.1, §5.3", "Attempts",
			claimArm{"cross-product-shaped body", attempts(cross+`
module m.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), link(Y, Z).
end_module.
`, "q(X, W)")},
			claimArm{"2 × input rows", constant(2 * crossRows)}},
		{"E20", "§5.1", "Attempts",
			claimArm{"cross-product-shaped body over a module call", attempts(coldCross+`
module tiny.
export ok(ff).
ok(Y, Z) :- linkbase(Y, Z).
end_module.
module outer.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), ok(Y, Z).
end_module.
`, "q(X, W)")},
			claimArm{"2 × input rows", constant(2 * crossRows)}},
		{"backtracking", "§4.2", "Attempts",
			claimArm{"intelligent", attempts(backtrack(""), "q(X, W)")},
			claimArm{"@chronological_backtracking", attempts(backtrack("@chronological_backtracking.\n"), "q(X, W)")}},
		{"join_order", "§4.2", "Attempts",
			claimArm{"@reorder", attempts(joinOrder("@reorder.\n"), "q(7)")},
			claimArm{"source order", attempts(joinOrder(""), "q(7)")}},
	} {
		t.Run(c.id, func(t *testing.T) {
			less, more := c.less.measure(t), c.more.measure(t)
			t.Logf("%s: %s = %g, %s = %g", c.counter, c.less.name, less, c.more.name, more)
			if !(less < more) {
				t.Errorf("%s (%s): %s on %s = %g, want < %g on %s",
					c.id, c.section, c.counter, c.less.name, less, more, c.more.name)
			}
		})
	}
}

// diamondChain writes k diamonds in a row: node 3i reaches 3i+3 through
// 3i+1 and through 3i+2, so 0 reaches 3k along 2^k paths.
func diamondChain(k int) string {
	var src string
	for i := 0; i < 3*k; i += 3 {
		src += fmt.Sprintf("edge(%d, %d). edge(%d, %d). edge(%d, %d). edge(%d, %d).\n", i, i+1, i, i+2, i+1, i+3, i+2, i+3)
	}
	return src
}

// crossProduct writes big1/big2 (n rows each, unrelated) and a selective
// n/8-row link relation named link: a body that joins big1 with big2 before
// link is a cross product.
func crossProduct(n int, link string) (string, int) {
	var src string
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("big1(a%d, b%d).\nbig2(c%d, v%d).\n", i, i, i, i%4)
	}
	rows := 2 * n
	for i := 0; i < n; i += 8 {
		src += fmt.Sprintf("%s(b%d, c%d).\n", link, i, i)
		rows++
	}
	return src, rows
}

func derivations(src, goal string) func(*testing.T) float64 {
	return counter(src, goal, func(s engine.RunStats) int { return s.Derivations })
}

func iterations(src, goal string) func(*testing.T) float64 {
	return counter(src, goal, func(s engine.RunStats) int { return s.Iterations })
}

func factsStored(src, goal string) func(*testing.T) float64 {
	return counter(src, goal, func(s engine.RunStats) int { return s.FactsStored })
}

func attempts(src, goal string) func(*testing.T) float64 {
	return counter(src, goal, func(s engine.RunStats) int { return s.Attempts })
}

func answers(src, goal string) func(*testing.T) float64 {
	return counter(src, goal, func(s engine.RunStats) int { return s.Answers })
}

func constant(v int) func(*testing.T) float64 {
	return func(*testing.T) float64 { return float64(v) }
}

// counter consults src into a fresh system and reads one counter of one
// call of goal.
func counter(src, goal string, read func(engine.RunStats) int) func(*testing.T) float64 {
	return func(t *testing.T) float64 {
		return float64(read(measureGoal(t, claimSystem(t, src), goal)))
	}
}

// repeatCallDerivations calls goal twice on one system and reports what the
// second call derived. A saved module's counters accumulate across calls.
func repeatCallDerivations(src, goal string) func(*testing.T) float64 {
	return func(t *testing.T) float64 {
		sys := claimSystem(t, src)
		first := measureGoal(t, sys, goal)
		second := measureGoal(t, sys, goal)
		return float64(second.Derivations - first.Derivations)
	}
}

// poolHitRatio loads 4000 facts into a persistent relation with a B+tree
// index over a pool of the given size, then reports the share of page
// requests that hit during 500 indexed probes spread over the keys.
func poolHitRatio(frames int) func(*testing.T) float64 {
	return func(t *testing.T) float64 {
		const tuples = 4000
		db, err := storage.Open(filepath.Join(t.TempDir(), "claims.cdb"), frames)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rel, err := db.Relation("edge", 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tuples; i++ {
			rel.Insert(relation.GroundFact(term.Int(int64(i)), term.Int(int64(i+1))))
		}
		if err := rel.CreateIndex(0); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		for i := 0; i < 500; i++ {
			it := rel.Lookup([]term.Term{term.Int(int64(i * 37 % tuples)), term.NewVar("Y")}, nil)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		}
		return db.Stats().HitRatio()
	}
}

func claimSystem(t *testing.T, src string) *engine.System {
	t.Helper()
	sys := New()
	if _, err := sys.Consult(src); err != nil {
		t.Fatal(err)
	}
	return sys.Engine()
}

func measureGoal(t *testing.T, sys *engine.System, goal string) engine.RunStats {
	t.Helper()
	g, err := parser.ParseTerm(goal)
	if err != nil {
		t.Fatal(err)
	}
	f := g.(*term.Functor)
	stats, err := sys.MeasureCall(ast.PredKey{Name: f.Sym, Arity: len(f.Args)}, f.Args)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}
