// Package workload generates the synthetic datasets and program texts the
// tests evaluate: chains, cycles, grids, trees and random graphs for
// transitive-closure-style programs, weighted graphs for the shortest-path
// program of Figure 3, mutually recursive predicate families for the PSN
// claim, random recursive modules for the differential suite, and the
// win-move game for Ordered Search.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Chain writes edge(i, i+1) for i in [0, n).
func Chain(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(%d, %d).\n", i, i+1)
	}
	return b.String()
}

// Cycle writes a ring of n edges.
func Cycle(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(%d, %d).\n", i, (i+1)%n)
	}
	return b.String()
}

// Tree writes a complete tree with the given fanout and depth; node ids
// are breadth-first integers rooted at 0.
func Tree(fanout, depth int) string {
	var b strings.Builder
	next := 1
	frontier := []int{0}
	for d := 0; d < depth; d++ {
		var newFrontier []int
		for _, p := range frontier {
			for c := 0; c < fanout; c++ {
				fmt.Fprintf(&b, "edge(%d, %d).\n", p, next)
				newFrontier = append(newFrontier, next)
				next++
			}
		}
		frontier = newFrontier
	}
	return b.String()
}

// Grid writes a w×h grid with right and down edges (node id = y*w+x).
func Grid(w, h int) string {
	var b strings.Builder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				fmt.Fprintf(&b, "edge(%d, %d).\n", id, id+1)
			}
			if y+1 < h {
				fmt.Fprintf(&b, "edge(%d, %d).\n", id, id+w)
			}
		}
	}
	return b.String()
}

// RandomGraph writes m distinct random edges over n nodes.
func RandomGraph(n, m int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	seen := map[[2]int]bool{}
	for len(seen) < m {
		e := [2]int{r.Intn(n), r.Intn(n)}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		fmt.Fprintf(&b, "edge(%d, %d).\n", e[0], e[1])
	}
	return b.String()
}

// WeightedGraph writes m random weighted edges edge(u, v, w) over n nodes,
// weights in [1, maxW]. The graph includes a Hamiltonian-ish backbone so
// every node is reachable from node 0.
func WeightedGraph(n, m int, maxW int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	seen := map[[2]int]bool{}
	emit := func(u, v int) {
		e := [2]int{u, v}
		if u == v || seen[e] {
			return
		}
		seen[e] = true
		fmt.Fprintf(&b, "edge(%d, %d, %d).\n", u, v, 1+r.Intn(maxW))
	}
	perm := r.Perm(n)
	for i := 0; i+1 < n; i++ {
		emit(perm[i], perm[i+1])
	}
	emit(0, perm[0])
	for len(seen) < m {
		emit(r.Intn(n), r.Intn(n))
	}
	return b.String()
}

// TCModule is the linear transitive-closure module with the given
// annotations spliced in.
func TCModule(ann string) string {
	return `
module tc.
export tc(bf, ff).
` + ann + `
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`
}

// RightLinearTC is the right-recursive variant that context factoring
// accepts.
func RightLinearTC(ann string) string {
	return `
module tc.
export tc(bf).
` + ann + `
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`
}

// MutualRecursion builds a module with k mutually recursive path
// predicates p0..p{k-1}: pi(X,Y) :- edge(X,Y); pi(X,Y) :- edge(X,Z),
// p{(i+1)%k}(Z,Y). All are one SCC; PSN's predicate ordering propagates
// facts within an iteration while BSN waits a full round per predicate.
func MutualRecursion(k int, ann string) string {
	var b strings.Builder
	b.WriteString("module mut.\nexport p0(bf, ff).\n")
	b.WriteString(ann)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "p%d(X, Y) :- edge(X, Y).\n", i)
		fmt.Fprintf(&b, "p%d(X, Y) :- edge(X, Z), p%d(Z, Y).\n", i, (i+1)%k)
	}
	b.WriteString("end_module.\n")
	return b.String()
}

// ReachModule is plain reachability over the weighted edge/3 relation
// (the shortest-path workload's graph): the cost argument is read but not
// aggregated, so the fixpoint is a pure BSN round — the workload the
// parallel fixpoint tests partition across cores.
func ReachModule(ann string) string {
	return `
module reach.
export reach(ff, bf).
` + ann + `
reach(X, Y) :- edge(X, Y, C).
reach(X, Y) :- edge(X, Z, C), reach(Z, Y).
end_module.
`
}

// RandomDatalogModule emits a randomized mutually recursive Datalog module
// deterministically derived from seed: k predicates p0..p{k-1} over a
// binary edge relation, each with the exit rule pi(X,Y) :- edge(X,Y) and
// 1–3 recursive rules drawn from the safe join shapes
//
//	pi(X, Y) :- edge(X, Z), pj(Z, Y).
//	pi(X, Y) :- pj(X, Z), edge(Z, Y).
//	pi(X, Y) :- pj(X, Z), pk(Z, Y).
//
// Every rule is range-restricted and every derived value is a graph node,
// so the fixpoint always terminates. p0 is exported free-free; splice ann
// (e.g. "@rewrite none.") to pick the evaluation strategy. The property
// test in internal/engine runs these under BSN, PSN, naive and parallel
// evaluation and requires identical answer sets.
//
// Seed-dependently, the module grows two extra layers above the recursive
// core: a stratified negation layer (q0, exported when present) whose
// negated literal is fully bound by the positive part, and an
// @aggregate_selection layer (agg0, exported when present) using min — a
// deterministic selection whose surviving set is independent of derivation
// order, unlike any. The draws come after the p-layer's, so a given seed
// produces the same recursive core it always did; aggregate selections
// disable parallel rounds wholesale, which is why agg emission must not be
// unconditional — seeds without it keep parallel differential coverage.
func RandomDatalogModule(seed int64, ann string) string {
	r := rand.New(rand.NewSource(seed))
	k := 2 + r.Intn(3)
	var rules strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&rules, "p%d(X, Y) :- edge(X, Y).\n", i)
		n := 1 + r.Intn(3)
		for ; n > 0; n-- {
			j := r.Intn(k)
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&rules, "p%d(X, Y) :- edge(X, Z), p%d(Z, Y).\n", i, j)
			case 1:
				fmt.Fprintf(&rules, "p%d(X, Y) :- p%d(X, Z), edge(Z, Y).\n", i, j)
			default:
				fmt.Fprintf(&rules, "p%d(X, Y) :- p%d(X, Z), p%d(Z, Y).\n", i, j, r.Intn(k))
			}
		}
	}
	hasNeg := r.Intn(2) == 0
	hasAgg := r.Intn(3) == 0
	var b strings.Builder
	b.WriteString("module rnd.\nexport p0(ff).\n")
	if hasNeg {
		b.WriteString("export q0(ff).\n")
	}
	if hasAgg {
		b.WriteString("export agg0(ff).\n")
	}
	b.WriteString(ann)
	if hasAgg {
		b.WriteString("@aggregate_selection agg0(X, Y) (X) min(Y).\n")
	}
	b.WriteString(rules.String())
	if hasNeg {
		// Stratified by construction: q0 sits strictly above the p-layer
		// and the negated literal's variables are bound by the positive one.
		fmt.Fprintf(&b, "q0(X, Y) :- p0(X, Y), not p%d(Y, X).\n", r.Intn(k))
	}
	if hasAgg {
		// A non-recursive sink: min keeps, per X, only the smallest Y.
		b.WriteString("agg0(X, Y) :- p0(X, Y).\n")
	}
	b.WriteString("end_module.\n")
	return b.String()
}

// ShortestPathModule is the paper's Figure 3 program (both aggregate
// selections) with the given annotations added.
func ShortestPathModule(ann string) string {
	return `
module sp.
export s_p(bfff).
` + ann + `
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(C)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC), P1 = [e(Z, Y)|P], C1 = C + EC.
p(X, Y, [e(X, Y)], C) :- edge(X, Y, C).
end_module.
`
}

// WinGameMoves writes a random game graph: move(i, j) edges going upward
// from i to at most `branch` positions in (i, i+gap]; position n-1 has no
// moves. Modularly stratified for win(X) :- move(X,Y), not win(Y).
func WinGameMoves(n, branch, gap int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		k := 1 + r.Intn(branch)
		for j := 0; j < k; j++ {
			to := i + 1 + r.Intn(gap)
			if to >= n {
				to = n - 1
			}
			fmt.Fprintf(&b, "move(p%d, p%d).\n", i, to)
		}
	}
	return b.String()
}

// WinModule is the game program, optionally with ordered search.
func WinModule(ann string) string {
	return `
module game.
export win(b).
` + ann + `
win(X) :- move(X, Y), not win(Y).
end_module.
`
}
