package main

// closure_join and spath_arith: one caller goroutine consults programs
// into coral.System values at set-up and waits for each query's full
// answer set, as an embedding program does.

import (
	"fmt"
	"io"
	"strings"

	"coral"
	"coral/internal/parser"
	"coral/internal/term"
	gen "coral/internal/workload"
)

// evalOp is one scheduled in-process query.
type evalOp struct {
	shape string // names the span and engine.eval_ms.<shape>
	query string
	call  call
	src   int // spath: the bound source node
}

// evalWorkload is a program, a schedule of queries over it, and a checker
// per shape.
type evalWorkload struct {
	program string
	forms   []form
	sched   []evalOp
	warmOps int
	digest  string
	// check compares an answer set with the reference; it must not
	// allocate much, since it runs between timed operations.
	check  func(op *evalOp, tuples []coral.Tuple) bool
	tuples func() ([][]term.Term, []term.Term) // fact stream and built terms, for the probes
}

const symClosure = `
module psym.
export p(ff).
@rewrite none.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
end_module.
`

// newClosureJoin: all-free transitive closure of one random graph, three
// rule shapes round-robin, every switch at its default. The fixpoint does
// nearly all the work; parsing and rewriting do none.
func newClosureJoin(seed int64, sz sizes) *evalWorkload {
	facts := gen.RandomGraph(sz.closureNodes, sz.closureEdges, subSeed(seed, "closure-graph"))
	edges := parseFacts(facts)
	n := sz.closureNodes
	want := closure(newGraph(edges), n)
	w := &evalWorkload{
		program: facts + gen.TCModule("@rewrite none.") + symClosure +
			gen.MutualRecursion(3, "@rewrite none."),
		forms:   []form{{"tc", "tc", 2, "ff"}, {"psym", "p", 2, "ff"}, {"mut", "p0", 2, "ff"}},
		warmOps: sz.closureOps / 20,
	}
	shapes := []evalOp{
		{shape: "tc_linear", query: "tc(X, Y)", call: call{"tc_linear", "tc", 2, nil}},
		{shape: "p_sym", query: "p(X, Y)", call: call{"p_sym", "p", 2, nil}},
		{shape: "mutual", query: "p0(X, Y)", call: call{"mutual", "p0", 2, nil}},
	}
	for i := 0; i < sz.closureOps; i++ {
		w.sched = append(w.sched, shapes[i%len(shapes)])
	}
	w.check = func(_ *evalOp, tuples []coral.Tuple) bool {
		want.begin()
		for _, t := range tuples {
			x, okx := t[0].(term.Int)
			y, oky := t[1].(term.Int)
			if !okx || !oky || x < 0 || y < 0 || int(x) >= n || int(y) >= n {
				return false
			}
			want.add(int(x)*n + int(y))
		}
		return want.ok()
	}
	w.tuples = func() ([][]term.Term, []term.Term) {
		var rows [][]int
		for k, in := range want.want {
			if in && len(rows) < 20000 {
				rows = append(rows, []int{k / n, k % n})
			}
		}
		return intTuples(rows, len(rows)), nil
	}
	w.finish()
	return w
}

const arithModule = `
module arith.
export cost(fff).
@rewrite none.
cost(X, Y, C) :- link(X, Y, W), C = W.
cost(X, Y, C) :- cost(X, Z, C1), link(Z, Y, W), C = C1 + W, C < 16.
end_module.
`

const (
	costLimit = 16 // the bound in arithModule's recursive rule
	maxWeight = 10 // edge weights are 1..maxWeight, all below costLimit
)

// newSpathArith: the paper's Fig. 3 shortest-path program under Ordered
// Search from a seeded source, two operations in three, and a bounded-cost
// arithmetic recursion, one in three. (An even split would put the median
// latency on the boundary between the two shapes.)
func newSpathArith(seed int64, sz sizes) *evalWorkload {
	spFacts := gen.WeightedGraph(sz.spathNodes, sz.spathEdges, maxWeight, subSeed(seed, "spath-graph"))
	// The arithmetic recursion reads its own graph, as link/3, so that both
	// programs live in one system.
	arFacts := strings.ReplaceAll(
		gen.WeightedGraph(sz.arithNodes, sz.arithEdges, maxWeight, subSeed(seed, "arith-graph")),
		"edge(", "link(")
	spGraph := newWGraph(parseFacts(spFacts))
	arGraph := newWGraph(parseFacts(arFacts))
	costs := arGraph.boundedCosts(sz.arithNodes, costLimit)
	costSet := newDenseSet(sz.arithNodes * sz.arithNodes * costLimit)
	costKey := func(x, y, c int) int { return (x*sz.arithNodes+y)*costLimit + c }
	for t := range costs {
		costSet.expect(costKey(t[0], t[1], t[2]))
	}
	dist, pred := map[int]map[int]int{}, map[int]map[int]int{}
	r := newRand(seed, "spath_arith")
	w := &evalWorkload{
		program: spFacts + arFacts + gen.ShortestPathModule("@ordered_search.") + arithModule,
		forms:   []form{{"sp", "s_p", 4, "bfff"}, {"arith", "cost", 3, "fff"}},
		warmOps: (sz.spathOps/20 + 2) / 3 * 3,
	}
	for i := 0; i < sz.spathOps; i++ {
		if i%3 == 2 {
			w.sched = append(w.sched, evalOp{shape: "arith", query: "cost(X, Y, C)",
				call: call{"arith", "cost", 3, nil}})
			continue
		}
		src := r.Intn(sz.spathNodes)
		if dist[src] == nil {
			dist[src], pred[src] = spGraph.shortest(src)
		}
		w.sched = append(w.sched, evalOp{shape: "spath", src: src,
			query: fmt.Sprintf("s_p(%d, Y, P, C)", src), call: call{"spath", "s_p", 4, map[int]int{0: src}}})
	}
	seen := newDenseSet(sz.spathNodes)
	var path [][2]int
	w.check = func(op *evalOp, tuples []coral.Tuple) bool {
		if op.shape == "arith" {
			costSet.begin()
			for _, t := range tuples {
				x, okx := t[0].(term.Int)
				y, oky := t[1].(term.Int)
				c, okc := t[2].(term.Int)
				if !okx || !oky || !okc || c < 0 || c >= costLimit {
					return false
				}
				costSet.add(costKey(int(x), int(y), int(c)))
			}
			return costSet.ok()
		}
		// One answer per reachable node: the least cost, and a path that
		// really has it (any(P) is free to choose which).
		want := dist[op.src]
		if len(tuples) != len(want) {
			return false
		}
		seen.begin()
		for _, t := range tuples {
			y, oky := t[0].(term.Int)
			c, okc := t[2].(term.Int)
			var ok bool
			if path, ok = pathEdges(t[1], path[:0]); !ok || !oky || !okc {
				return false
			}
			d, reachable := want[int(y)]
			if !reachable || int(c) != d || !spGraph.validPath(op.src, int(y), path, d) || !seen.fresh(int(y)) {
				return false
			}
		}
		return true
	}
	w.tuples = func() ([][]term.Term, []term.Term) {
		// The p(X, Y, P, C) facts the shortest-path fixpoint keeps: one per
		// reference distance, with the reference path as its list.
		var tuples [][]term.Term
		var lists []term.Term
		for src := 0; src < sz.spathNodes; src++ {
			for y := 0; y < sz.spathNodes && dist[src] != nil; y++ {
				c, ok := dist[src][y]
				if !ok {
					continue
				}
				l := term.EmptyList()
				for at := y; ; at = pred[src][at] {
					from := pred[src][at]
					l = term.Cons(term.NewFunctor("e", term.Int(int64(from)), term.Int(int64(at))), l)
					if from == src {
						break
					}
				}
				lists = append(lists, l)
				tuples = append(tuples, []term.Term{term.Int(int64(src)), term.Int(int64(y)), l, term.Int(int64(c))})
			}
		}
		return tuples, lists
	}
	w.finish()
	return w
}

// pathEdges reads a path list [e(Z, Y), ..., e(X, A)] (last edge first, as
// the program conses it) into travel order, reusing buf.
func pathEdges(t term.Term, buf [][2]int) ([][2]int, bool) {
	for !term.IsNil(t) {
		head, tail, ok := term.IsCons(t)
		if !ok {
			return buf, false
		}
		e, ok := head.(*term.Functor)
		if !ok || e.Sym != "e" || len(e.Args) != 2 {
			return buf, false
		}
		u, oku := e.Args[0].(term.Int)
		v, okv := e.Args[1].(term.Int)
		if !oku || !okv {
			return buf, false
		}
		buf = append(buf, [2]int{int(u), int(v)})
		t = tail
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf, true
}

func (w *evalWorkload) finish() {
	w.digest = hashOf(func(h io.Writer) {
		io.WriteString(h, w.program)
		for i := range w.sched {
			fmt.Fprintln(h, w.sched[i].query)
		}
	})
}

func (w *evalWorkload) hash() string { return w.digest }

func (w *evalWorkload) ops() (total, warm []int) { return []int{len(w.sched)}, []int{w.warmOps} }

func (w *evalWorkload) inlineCheck() bool { return true }

type evalInst struct {
	w    *evalWorkload
	sys  *coral.System
	last *coral.Answers
}

func (w *evalWorkload) setUp(bool) (instance, error) {
	in := &evalInst{w: w, sys: coral.New()}
	if _, err := in.sys.Consult(w.program); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *evalInst) close() error { return nil }

func (in *evalInst) class(int, int) opClass { return classRead }

func (in *evalInst) name(_, i int) string { return in.w.sched[i].shape }

func (in *evalInst) exec(_, i int) (err error) {
	op := &in.w.sched[i]
	in.last, err = in.sys.Query(op.query)
	return err
}

// check also lets go of the answer set, so that it never counts as the
// program's live heap.
func (in *evalInst) check(_, i int) bool {
	ok := in.w.check(&in.w.sched[i], in.last.Tuples)
	in.last = nil
	return ok
}

func (in *evalInst) replay(tr *tracer, c, i, parent int, sampled bool) {
	if !sampled {
		return
	}
	op := &in.w.sched[i]
	eng := in.sys.Engine()
	tr.time(parent, c, i, "parser.parse_query", func() map[string]int64 {
		_, _ = parser.ParseQuery(op.query) // parsed without error a moment ago
		return nil
	})
	tr.time(parent, c, i, "engine.eval."+op.shape, func() map[string]int64 {
		st, _ := eng.MeasureCall(op.call.key(), op.call.args())
		return statCounts(st)
	})
	tr.time(parent, c, i, "engine.first_answer", func() map[string]int64 {
		_, _ = eng.MeasureFirstAnswer(op.call.key(), op.call.args())
		return nil
	})
}

func (w *evalWorkload) probes(_ instance, _ *pass, lm layerMetrics) error {
	tuples, terms := w.tuples()
	// A few calls per shape are enough for the counts: every operation of
	// a shape does identical work, except spath, whose source varies.
	pi := probeInput{program: w.program, forms: w.forms, tuples: tuples, terms: terms}
	perShape := map[string]int{}
	for i := range w.sched {
		if op := &w.sched[i]; perShape[op.shape] < 4 {
			perShape[op.shape]++
			pi.calls = append(pi.calls, op.call)
		}
	}
	return lm.probeLayers(pi)
}
