package workload

import (
	"strings"
	"testing"

	"coral/internal/parser"
	"coral/internal/term"
)

func countFacts(t *testing.T, src, pred string) int {
	t.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("generated text does not parse: %v", err)
	}
	n := 0
	for _, f := range u.Facts {
		if f.Pred == pred {
			n++
		}
	}
	return n
}

func TestChainCycleCounts(t *testing.T) {
	if got := countFacts(t, Chain(10), "edge"); got != 10 {
		t.Errorf("chain edges: %d", got)
	}
	if got := countFacts(t, Cycle(7), "edge"); got != 7 {
		t.Errorf("cycle edges: %d", got)
	}
}

func TestTreeAndGridCounts(t *testing.T) {
	// Complete binary tree of depth 3: 2+4+8 = 14 edges.
	if got := countFacts(t, Tree(2, 3), "edge"); got != 14 {
		t.Errorf("tree edges: %d", got)
	}
	// w*h grid: (w-1)*h right + w*(h-1) down.
	if got := countFacts(t, Grid(4, 3), "edge"); got != 3*3+4*2 {
		t.Errorf("grid edges: %d", got)
	}
}

func TestRandomGraphDistinct(t *testing.T) {
	src := RandomGraph(20, 50, 1)
	if got := countFacts(t, src, "edge"); got != 50 {
		t.Errorf("random graph edges: %d", got)
	}
	// Determinism per seed.
	if RandomGraph(20, 50, 1) != src {
		t.Error("same seed produced different graphs")
	}
	if RandomGraph(20, 50, 2) == src {
		t.Error("different seeds produced identical graphs")
	}
}

func TestWeightedGraphConnected(t *testing.T) {
	src := WeightedGraph(15, 40, 10, 3)
	if got := countFacts(t, src, "edge"); got != 40 {
		t.Errorf("weighted edges: %d", got)
	}
	// The backbone guarantees reachability from node 0; verify by a quick
	// closure over the parsed facts.
	u, _ := parser.Parse(src)
	adj := map[int64][]int64{}
	for _, f := range u.Facts {
		from := int64(f.Args[0].(term.Int))
		to := int64(f.Args[1].(term.Int))
		adj[from] = append(adj[from], to)
	}
	seen := map[int64]bool{0: true}
	stack := []int64{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	if len(seen) != 15 {
		t.Errorf("only %d of 15 nodes reachable from 0", len(seen))
	}
}

func TestModuleGeneratorsParse(t *testing.T) {
	for name, src := range map[string]string{
		"tc":       TCModule("@psn."),
		"rightlin": RightLinearTC(""),
		"mutual":   MutualRecursion(3, ""),
		"shortest": ShortestPathModule("@ordered_search."),
		"win":      WinModule("@ordered_search."),
	} {
		u, err := parser.Parse(src)
		if err != nil {
			t.Errorf("%s does not parse: %v", name, err)
			continue
		}
		if len(u.Modules) != 1 {
			t.Errorf("%s: %d modules", name, len(u.Modules))
		}
	}
	if got := countFacts(t, WinGameMoves(20, 2, 3, 1), "move"); got == 0 {
		t.Error("no moves generated")
	}
}

func TestMutualRecursionShape(t *testing.T) {
	u, err := parser.Parse(MutualRecursion(4, ""))
	if err != nil {
		t.Fatal(err)
	}
	m := u.Modules[0]
	if len(m.Rules) != 8 {
		t.Errorf("rules: %d", len(m.Rules))
	}
	// p0's recursive rule must call p1.
	if !strings.Contains(m.Rules[1].String(), "p1(") {
		t.Errorf("p0 recursive rule: %s", m.Rules[1])
	}
}
