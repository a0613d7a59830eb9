package workload

// EvalFuzzSeeds is the seed corpus of the evaluation fuzz targets — root
// FuzzEval (never panic, never hang, abort with a typed error) and the
// engine's FuzzParallelStream (Parallelism 1 and 4 emit the same stream).
// Each seed is a whole consultable text with its queries inline.
var EvalFuzzSeeds = []string{
	// Unbounded arithmetic recursion: must trip the budget.
	"module inf.\nexport num(f).\nnum(0).\nnum(X) :- num(Y), X = Y + 1.\nend_module.\n?- num(X).",
	// Terminating transitive closure with an inline query.
	"edge(a, b). edge(b, c). edge(c, a).\nmodule m.\nexport tc(ff).\ntc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\nend_module.\n?- tc(a, X).",
	// Stratified negation under Ordered Search.
	"move(a, b). move(b, c).\nmodule g.\nexport win(b).\n@ordered_search.\nwin(X) :- move(X, Y), not win(Y).\nend_module.\n?- win(a).",
	// Aggregate selection (shortest paths) with a cycle.
	"edge(a, b, 1). edge(b, c, 2). edge(c, a, 3).\nmodule sp.\nexport p(bfff).\n@aggregate_selection p(X, Y, P, C) (X, Y) min(C).\np(X, Y, [e(X, Y)], C) :- edge(X, Y, C).\np(X, Y, [e(Z, Y)|P], C1) :- p(X, Z, P, C), edge(Z, Y, EC), C1 = C + EC.\nend_module.\n?- p(a, Y, P, C).",
	// Pipelined evaluation.
	"e(1, 2). e(2, 3).\nmodule p.\nexport q(ff).\n@pipelining.\nq(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), q(Z, Y).\nend_module.\n?- q(1, X).",
	// Head aggregation and set grouping.
	"s(a, 1). s(a, 2). s(b, 3).\nmodule a.\nexport t(ff).\nt(X, sum(Y)) :- s(X, Y).\nend_module.\n?- t(X, S).",
	// Runtime type error paths.
	"v(a, x).\nmodule m.\nexport b(ff).\nb(X, Y) :- v(X, V), Y < V + 1.\nend_module.\n?- b(X, Y).",
	// Bytecode fragment boundaries: repeated variables (store vs.
	// compare), functor descent, and a structural "=" the compiler
	// must hand back to the interpreter.
	"e(f(a), f(a)). e(f(a), g(b)).\nmodule s.\nexport q(f).\nq(X) :- e(W, W), W = f(X).\nend_module.\n?- q(X).",
	// Negation with a partially built pattern argument.
	"n(a). n(b). e(a, b).\nmodule ng.\nexport r(f).\nr(X) :- n(X), not e(X, X).\nend_module.\n?- r(X).",
	// Integer overflow promotion out of the Int fast path.
	"big(4611686018427387904).\nmodule o.\nexport d(f).\nd(X) :- big(B), X = B * 3.\nend_module.\n?- d(X).",
	// Division by zero thrown from compiled arithmetic.
	"z(0).\nmodule dz.\nexport w(f).\nw(X) :- z(Z), X = 1 / Z.\nend_module.\n?- w(X).",
}

// TCFuzzSeed is the seed whose recursive stratum is eligible for the worker
// pool (a plain closure: no Ordered Search, aggregate selection or
// pipelining), so FuzzParallelStream can insist a pool round ran on it.
var TCFuzzSeed = EvalFuzzSeeds[1]
