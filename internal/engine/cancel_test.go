package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/term"
	"coral/internal/workload"
)

// countdownCtx cancels itself after Err has been consulted n times — a
// deterministic fault injector that sweeps the cancellation point across an
// evaluation one budget poll at a time. The guard only consults Err (it
// never selects on Done), so a nil Done channel is fine.
type countdownCtx struct{ left int64 }

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if atomic.AddInt64(&c.left, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// drainCall evaluates pred(args) and drains the scan, converting any
// evaluation throw (including budget aborts surfacing mid-scan) into an
// error. Answers come back in exactly the order the scan produced them.
func drainCall(sys *System, pred string, arity int, args []term.Term) (out []string, err error) {
	defer recoverEval(&err)
	key := ast.PredKey{Name: pred, Arity: arity}
	def, ok := sys.Export(key)
	if !ok {
		return nil, fmt.Errorf("no module exports %s", key)
	}
	if args == nil {
		args = make([]term.Term, arity)
		for i := range args {
			args[i] = term.NewVar(fmt.Sprintf("A%d", i))
		}
	}
	it, err := def.Call(key, args, nil)
	if err != nil {
		return nil, err
	}
	for {
		f, ok := it.Next()
		if !ok {
			return out, nil
		}
		out = append(out, f.String())
	}
}

// queryOrdered runs a query string, keeping the answers in evaluation
// order (ask() sorts, which would mask order divergence).
func queryOrdered(sys *System, q string) ([]string, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	_, facts, _, err := sys.Query(query.Body)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, f := range facts {
		out = append(out, f.String())
	}
	return out, nil
}

// assertNoGoroutineLeak waits for the goroutine count to return to the
// baseline taken before the aborted evaluations. Worker pools always join
// at the round barrier, so any sustained excess is a leak.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after abort: %d > baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelMode is one evaluation strategy under fault injection: a program,
// the exported predicate to drain, and the parallelism to request.
type cancelMode struct {
	name        string
	src         string
	pred        string
	arity       int
	args        []term.Term
	parallelism int
}

func cancelModes() []cancelMode {
	return []cancelMode{
		{
			name:        "sequential",
			src:         workload.RandomGraph(12, 36, 5) + workload.RandomDatalogModule(5, "@rewrite none."),
			pred:        "p0",
			arity:       2,
			parallelism: 1,
		},
		{
			name:        "parallel",
			src:         workload.RandomGraph(12, 36, 5) + workload.RandomDatalogModule(5, "@rewrite none."),
			pred:        "p0",
			arity:       2,
			parallelism: 4,
		},
		{
			// Chain data keeps the pipelined top-down evaluation finite.
			name:        "pipelined",
			src:         workload.Chain(24) + workload.TCModule("@pipelining."),
			pred:        "tc",
			arity:       2,
			parallelism: 1,
		},
		{
			name:        "ordered-search",
			src:         workload.WinGameMoves(18, 2, 3, 7) + workload.WinModule("@ordered_search."),
			pred:        "win",
			arity:       1,
			args:        []term.Term{term.Atom("p0")},
			parallelism: 1,
		},
	}
}

// TestCancelFaultInjection sweeps the abort point across sequential,
// parallel, pipelined and Ordered Search evaluation: with budget polls
// forced to every tuple, cancel after the k-th poll (context injection)
// and after the k-th derived fact (fact budget), for a sweep of k. Every
// abort must surface as *AbortError — never a panic — leave no goroutine
// behind, and leave the System consistent: re-running the same call on the
// same System with the budget cleared yields byte-identical answers to a
// fresh System.
func TestCancelFaultInjection(t *testing.T) {
	defer func(old int) { budgetCheckEvery = old }(budgetCheckEvery)
	budgetCheckEvery = 1
	defer func(old int) { parMinChunk = old }(parMinChunk)
	parMinChunk = 4

	for _, m := range cancelModes() {
		t.Run(m.name, func(t *testing.T) {
			fresh, err := LoadSystem(m.src)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Parallelism = m.parallelism
			want, err := drainCall(fresh, m.pred, m.arity, m.args)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			base := runtime.NumGoroutine()
			aborts := 0
			for k := 1; k <= 34; k += 3 {
				for _, inject := range []string{"ctx", "facts"} {
					sys, err := LoadSystem(m.src)
					if err != nil {
						t.Fatal(err)
					}
					sys.Parallelism = m.parallelism
					switch inject {
					case "ctx":
						sys.Ctx = &countdownCtx{left: int64(k)}
					case "facts":
						sys.Budget = Budget{MaxFacts: k}
					}
					got, err := drainCall(sys, m.pred, m.arity, m.args)
					if err != nil {
						var ab *AbortError
						if !errors.As(err, &ab) {
							t.Fatalf("%s k=%d: abort is not *AbortError: %v", inject, k, err)
						}
						aborts++
					} else if !sameStrings(got, want) {
						t.Fatalf("%s k=%d: uncanceled run diverged", inject, k)
					}
					// The System must stay consistent: clearing the budget
					// and re-running must match a fresh System byte for byte.
					sys.Ctx = nil
					sys.Budget = Budget{}
					rerun, err := drainCall(sys, m.pred, m.arity, m.args)
					if err != nil {
						t.Fatalf("%s k=%d: re-run after abort failed: %v", inject, k, err)
					}
					if !sameStrings(rerun, want) {
						t.Fatalf("%s k=%d: re-run after abort diverges from fresh System:\nwant (%d): %v\ngot  (%d): %v",
							inject, k, len(want), want, len(rerun), rerun)
					}
				}
			}
			if aborts == 0 {
				t.Fatal("sweep never tripped an abort: fault injection is dead")
			}
			assertNoGoroutineLeak(t, base)
		})
	}
}

// TestInfiniteRecursionAborts is the acceptance criterion for the budget
// subsystem: a query with unbounded arithmetic recursion must abort within
// 2x the configured deadline under all four evaluation modes, return
// *AbortError carrying partial RunStats, leak no goroutines, and leave the
// System able to answer a follow-up query correctly.
func TestInfiniteRecursionAborts(t *testing.T) {
	const deadline = 250 * time.Millisecond
	modes := []struct {
		name        string
		ann         string
		parallelism int
	}{
		{"sequential-bsn", "@rewrite none.", 1},
		{"parallel-bsn", "@rewrite none.", 4},
		{"pipelined", "@pipelining.", 1},
		{"ordered-search", "@ordered_search.", 1},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			src := `
edge(a, b). edge(b, c).
module inf.
export num(f).
` + m.ann + `
num(0).
num(X) :- num(Y), X = Y + 1.
end_module.
module paths.
export tc(ff).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`
			sys, err := LoadSystem(src)
			if err != nil {
				t.Fatal(err)
			}
			sys.Parallelism = m.parallelism
			sys.Budget = Budget{Timeout: deadline}
			base := runtime.NumGoroutine()
			start := time.Now()
			_, err = queryOrdered(sys, "num(X)")
			elapsed := time.Since(start)
			var ab *AbortError
			if !errors.As(err, &ab) {
				t.Fatalf("want *AbortError, got %v", err)
			}
			if ab.Tripped != AbortDeadline {
				t.Errorf("Tripped = %q, want %q", ab.Tripped, AbortDeadline)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Error("abort does not unwrap to context.DeadlineExceeded")
			}
			if elapsed > 2*deadline {
				t.Errorf("aborted after %v, want within 2x deadline (%v)", elapsed, 2*deadline)
			}
			if ab.Stats == (RunStats{}) {
				t.Error("AbortError carries no partial RunStats")
			}
			assertNoGoroutineLeak(t, base)

			// The aborted System must answer a follow-up query correctly.
			sys.Budget = Budget{}
			got, err := queryOrdered(sys, "tc(a, Y)")
			if err != nil {
				t.Fatalf("follow-up query after abort: %v", err)
			}
			if len(got) != 2 {
				t.Fatalf("follow-up query answers = %v, want 2 reachable nodes", got)
			}
		})
	}
}

// TestQueryAbortCarriesStats: when the top-level query rule's own amortized
// poll is what notices the budget — before any module call's round barrier
// does — the abort is raised from inside a scan, where nobody has counters to
// attach. The query boundary must fill them in. Deterministic: only the
// outer evaluator's guard can trip, and it trips on its first poll.
// (TestInfiniteRecursionAborts/sequential-bsn hit this by timing about once
// in a hundred runs.)
func TestQueryAbortCarriesStats(t *testing.T) {
	defer func(old int) { budgetCheckEvery = old }(budgetCheckEvery)
	budgetCheckEvery = 1
	sys, err := LoadSystem(workload.Chain(6) + workload.TCModule(""))
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("tc(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	outer := budgetGuard{on: true, ctx: &countdownCtx{}}
	_, _, stats, err := evalQuery(q.Body, &callCfg{v: sys.writerView()}, outer)
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Tripped != AbortCanceled {
		t.Fatalf("want a canceled *AbortError, got %v", err)
	}
	if ab.Stats.Attempts != 1 || ab.Stats != stats {
		t.Errorf("abort carries %+v, the query had done %+v (one tuple considered)", ab.Stats, stats)
	}
}

// TestAbortUnderContextCancel pins the cancel half of the contract at the
// engine API: a context canceled mid-evaluation surfaces as *AbortError
// with Tripped = AbortCanceled and unwraps to context.Canceled.
func TestAbortUnderContextCancel(t *testing.T) {
	sys, err := LoadSystem(`
module inf.
export num(f).
@rewrite none.
num(0).
num(X) :- num(Y), X = Y + 1.
end_module.
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sys.Ctx = ctx
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = queryOrdered(sys, "num(X)")
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if ab.Tripped != AbortCanceled {
		t.Errorf("Tripped = %q, want %q", ab.Tripped, AbortCanceled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("abort does not unwrap to context.Canceled")
	}
}

// TestIterationBudgetTrips pins MaxIterations: the round barrier must stop
// the fixpoint after the configured number of iterations.
func TestIterationBudgetTrips(t *testing.T) {
	sys, err := LoadSystem(`
module inf.
export num(f).
@rewrite none.
num(0).
num(X) :- num(Y), X = Y + 1.
end_module.
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Budget = Budget{MaxIterations: 40}
	_, err = queryOrdered(sys, "num(X)")
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if ab.Tripped != AbortIterations {
		t.Errorf("Tripped = %q, want %q", ab.Tripped, AbortIterations)
	}
	if ab.Stats.Iterations == 0 || ab.Stats.Iterations > 41 {
		t.Errorf("partial stats report %d iterations, want ~40", ab.Stats.Iterations)
	}
}
