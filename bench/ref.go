package main

// Reference answers. Nothing in this file imports the program under test:
// the expected result of every scheduled operation is computed from the
// generated inputs with plain graph searches and a Go map, so an error
// shared by every evaluation mode of the engine still shows as a wrong
// answer here.

import (
	"container/heap"
	"sort"
)

// graph is an adjacency list over integer node ids.
type graph map[int][]int

func newGraph(edges [][]int) graph {
	g := graph{}
	for _, e := range edges {
		g[e[0]] = append(g[e[0]], e[1])
	}
	return g
}

// reach returns the nodes reachable from src by one or more edges, sorted
// (src itself only when it lies on a cycle).
func (g graph) reach(src int) []int {
	seen := map[int]bool{}
	queue := append([]int(nil), g[src]...)
	for _, v := range queue {
		seen[v] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// succ returns the distinct direct successors of src, sorted.
func (g graph) succ(src int) []int {
	return dedupInts(append([]int(nil), g[src]...))
}

// twoHop returns the distinct (y, z) with src→y→z, sorted.
func (g graph) twoHop(src int) [][2]int {
	set := map[[2]int]bool{}
	for _, y := range g[src] {
		for _, z := range g[y] {
			set[[2]int{y, z}] = true
		}
	}
	out := make([][2]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func dedupInts(v []int) []int {
	sort.Ints(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// denseSet checks a stream of answers, each mapped to a key in [0, size),
// against a fixed expected set without allocating: large answer sets are
// checked inline, between timed operations.
type denseSet struct {
	want  []bool
	count int
	seen  []uint32
	gen   uint32
	got   int
	bad   bool
}

func newDenseSet(size int) *denseSet {
	return &denseSet{want: make([]bool, size), seen: make([]uint32, size)}
}

func (s *denseSet) expect(k int) {
	if !s.want[k] {
		s.want[k] = true
		s.count++
	}
}

// begin starts the check of one answer set.
func (s *denseSet) begin() { s.gen++; s.got = 0; s.bad = false }

// fresh marks k as seen and reports whether this answer set had not
// produced it before.
func (s *denseSet) fresh(k int) bool {
	if k < 0 || k >= len(s.seen) || s.seen[k] == s.gen {
		return false
	}
	s.seen[k] = s.gen
	return true
}

// add records one answer; an unexpected or repeated key spoils the check.
func (s *denseSet) add(k int) {
	if !s.fresh(k) || !s.want[k] {
		s.bad = true
		return
	}
	s.got++
}

// ok reports whether exactly the expected set was produced.
func (s *denseSet) ok() bool { return !s.bad && s.got == s.count }

// closure builds the expected transitive closure of g over nodes [0, n),
// keyed x*n + y.
func closure(g graph, n int) *denseSet {
	s := newDenseSet(n * n)
	for x := 0; x < n; x++ {
		for _, y := range g.reach(x) {
			s.expect(x*n + y)
		}
	}
	return s
}

// wgraph is a weighted digraph: adjacency plus the weight of each edge.
type wgraph struct {
	adj map[int][][2]int // u → (v, w)
	w   map[[2]int]int
}

func newWGraph(edges [][]int) *wgraph {
	g := &wgraph{adj: map[int][][2]int{}, w: map[[2]int]int{}}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], [2]int{e[1], e[2]})
		g.w[[2]int{e[0], e[1]}] = e[2]
	}
	return g
}

type distItem struct{ node, dist, from int }
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// shortest returns, for every node reachable from src by at least one
// edge, the least total weight of such a path and the node before it on
// one such path (Dijkstra; the entry for src itself is its cheapest cycle,
// if any).
func (g *wgraph) shortest(src int) (dist, pred map[int]int) {
	dist, pred = map[int]int{}, map[int]int{}
	h := &distHeap{}
	for _, e := range g.adj[src] {
		heap.Push(h, distItem{e[0], e[1], src})
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if _, done := dist[it.node]; done {
			continue
		}
		dist[it.node], pred[it.node] = it.dist, it.from
		for _, e := range g.adj[it.node] {
			if _, done := dist[e[0]]; !done {
				heap.Push(h, distItem{e[0], it.dist + e[1], it.node})
			}
		}
	}
	return dist, pred
}

// validPath reports whether path (edges in travel order) leads from src to
// dst over real edges with total weight cost.
func (g *wgraph) validPath(src, dst int, path [][2]int, cost int) bool {
	if len(path) == 0 {
		return false
	}
	at, total := src, 0
	for _, e := range path {
		w, ok := g.w[e]
		if !ok || e[0] != at {
			return false
		}
		at = e[1]
		total += w
	}
	return at == dst && total == cost
}

// boundedCosts returns every (x, y, c) such that a walk of one or more
// edges leads from x to y with total weight c, where walks of two or more
// edges must total less than limit — a search over (node, cost) states,
// the meaning of the bounded-cost recursion of spath_arith.
func (g *wgraph) boundedCosts(n, limit int) map[[3]int]bool {
	out := map[[3]int]bool{}
	for x := 0; x < n; x++ {
		type state struct{ node, cost int }
		seen := map[state]bool{}
		var queue []state
		for _, e := range g.adj[x] {
			s := state{e[0], e[1]}
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			out[[3]int{x, s.node, s.cost}] = true
			for _, e := range g.adj[s.node] {
				t := state{e[0], s.cost + e[1]}
				if t.cost < limit && !seen[t] {
					seen[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	return out
}

// pairModel is the model of the persistent pedge/2 relation: a set of
// integer pairs kept by first column. The bulk-loaded facts are shared by
// every set-up of a run and never change; each set-up adds its own inserts.
type pairModel struct {
	base  map[int][]int
	added map[int][]int
}

// newPairBase builds the shared part from the bulk load.
func newPairBase(facts [][2]int) map[int][]int {
	m := &pairModel{base: map[int][]int{}, added: map[int][]int{}}
	for _, f := range facts {
		if !m.contains(f[0], f[1]) {
			m.base[f[0]] = append(m.base[f[0]], f[1])
		}
	}
	return m.base
}

func (m *pairModel) contains(a, b int) bool {
	for _, v := range m.base[a] {
		if v == b {
			return true
		}
	}
	for _, v := range m.added[a] {
		if v == b {
			return true
		}
	}
	return false
}

// insert adds (a, b) and reports whether it was new.
func (m *pairModel) insert(a, b int) bool {
	if m.contains(a, b) {
		return false
	}
	m.added[a] = append(m.added[a], b)
	return true
}

// values appends the distinct b with (a, b) in the model to buf.
func (m *pairModel) values(a int, buf []int) []int {
	return append(append(buf, m.base[a]...), m.added[a]...)
}

// hop2 returns the distinct z with (a, y) and (y, z) in the model, sorted.
func (m *pairModel) hop2(a int) []int {
	var out []int
	for _, y := range m.values(a, nil) {
		out = m.values(y, out)
	}
	return dedupInts(out)
}

// sameSet reports whether got holds exactly the distinct values of want,
// in any order; it allocates nothing, since values per key are few and
// persist_mixed checks inline.
func sameSet(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, x := range got {
		found := false
		for _, y := range want {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		for _, y := range got[:i] {
			if x == y {
				return false
			}
		}
	}
	return true
}
