package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Query cancellation and resource budgets. CORAL is an interactive system
// (paper §2): ad-hoc queries over recursive programs may have huge or
// non-terminating fixpoints, so every evaluation mode — the sequential and
// parallel semi-naive fixpoints, Ordered Search, and pipelining — runs under
// an optional budgetGuard threaded from the caller's View: a session's
// Ctx/Budget, or System.Ctx/System.Budget through the System's writer view.
//
// Check placement (DESIGN.md §5.11): the context and deadline are checked at
// every round barrier (matEval.step) and, amortized every budgetCheckEvery
// tuples, inside the join loop — pipelined goals run on it too — so a single
// runaway rule application cannot outlive its deadline by more than one poll
// interval. The fact budget is charged on every accepted derived-fact insert
// (shared atomically with parallel workers, which charge their buffered
// emits); the iteration budget is checked at the round barrier only.

// Budget bounds the work one evaluated call may perform. The zero value is
// unlimited; each field is independent and zero disables that bound.
type Budget struct {
	// Timeout is the wall-clock budget per call, measured from the moment
	// the call starts (ModuleDef.Call, System.Query, or a pipelined call).
	Timeout time.Duration
	// MaxFacts bounds the number of derived facts the call may store
	// (including magic and supplementary facts). Parallel workers charge
	// their buffered derivations against the same counter, so the bound may
	// overshoot by at most one merge round.
	MaxFacts int
	// MaxIterations bounds fixpoint iterations (round barriers crossed).
	MaxIterations int
}

// limited reports whether any bound is set.
func (b Budget) limited() bool {
	return b.Timeout > 0 || b.MaxFacts > 0 || b.MaxIterations > 0
}

// Abort reasons reported in AbortError.Tripped.
const (
	AbortCanceled   = "canceled"   // the call's context was canceled
	AbortDeadline   = "deadline"   // Budget.Timeout (or a context deadline) expired
	AbortFacts      = "facts"      // Budget.MaxFacts exceeded
	AbortIterations = "iterations" // Budget.MaxIterations exceeded
)

// AbortError reports a graceful evaluation abort: which budget tripped and
// the partial RunStats at the moment of the abort. The System remains
// consistent after an abort — the aborted evaluation's private relations are
// discarded (save-module state is invalidated and rebuilt on the next call),
// partially applied rounds are rolled back, and worker pools are drained —
// so follow-up queries run normally.
type AbortError struct {
	// Tripped is one of the Abort* constants.
	Tripped string
	// Stats is the work performed up to the abort.
	Stats RunStats
	// Hint carries static-analysis context for an iterations abort: when
	// the cardinality analysis proved a finite fixpoint round bound, the
	// message says how many rounds the evaluation was statically expected
	// to need — a tripped budget below that is just set too low.
	Hint  string
	cause error
}

// Error implements error.
func (e *AbortError) Error() string {
	switch e.Tripped {
	case AbortCanceled:
		return "engine: evaluation canceled"
	case AbortDeadline:
		return "engine: evaluation aborted: deadline exceeded"
	case AbortFacts:
		return "engine: evaluation aborted: derived-fact budget exceeded"
	case AbortIterations:
		msg := "engine: evaluation aborted: iteration budget exceeded"
		if e.Hint != "" {
			msg += " (" + e.Hint + ")"
		}
		return msg
	}
	return "engine: evaluation aborted"
}

// Unwrap exposes the underlying cause (the context error, when the abort
// came from context cancellation), so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work as expected.
func (e *AbortError) Unwrap() error { return e.cause }

// budgetCheckEvery is the amortization interval of the in-scan budget polls:
// the join loop consults the clock and the context once per this many
// tuples. A package variable so the fault-injection tests can set it to 1
// for per-tuple cancellation points.
var budgetCheckEvery = 256

// budgetGuard is the per-call incarnation of a View's Ctx and Budget:
// the deadline is anchored at call time and the fact counter starts at
// zero. It is embedded by value in matEval (a pipelined call allocates one
// only when a bound is in force) — a call without budgets pays no
// allocation and (in the join loop) a single nil check per tuple. The facts counter is a plain int64 manipulated with sync/atomic
// functions so the struct stays copyable at initialization time; after
// workers are handed a pointer it must not be copied.
type budgetGuard struct {
	on          bool
	ctx         context.Context
	hasDeadline bool
	deadline    time.Time
	maxFacts    int64
	maxIters    int
	facts       int64 // accessed atomically (shared with parallel workers)
}

// newGuard captures a caller's context and budget for one call — the one
// guard constructor; every evaluation takes its caller's view's (see View).
func newGuard(ctx context.Context, b Budget) budgetGuard {
	g := budgetGuard{ctx: ctx, maxFacts: int64(b.MaxFacts), maxIters: b.MaxIterations}
	if b.Timeout > 0 {
		g.hasDeadline = true
		g.deadline = time.Now().Add(b.Timeout)
	}
	g.on = ctx != nil || b.limited()
	return g
}

// active reports whether any bound is in force (nil receiver: none).
func (g *budgetGuard) active() bool { return g != nil && g.on }

// check returns the AbortError for a tripped context, deadline, or fact
// budget, or nil while within budget.
func (g *budgetGuard) check() error {
	if !g.active() {
		return nil
	}
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			tripped := AbortCanceled
			if errors.Is(err, context.DeadlineExceeded) {
				tripped = AbortDeadline
			}
			return &AbortError{Tripped: tripped, cause: err}
		}
	}
	if g.hasDeadline && time.Now().After(g.deadline) {
		return &AbortError{Tripped: AbortDeadline, cause: context.DeadlineExceeded}
	}
	if g.maxFacts > 0 && atomic.LoadInt64(&g.facts) > g.maxFacts {
		return &AbortError{Tripped: AbortFacts}
	}
	return nil
}

// checkRound is the round-barrier check: everything check covers, plus the
// iteration budget against the rounds already run.
func (g *budgetGuard) checkRound(iterations int) error {
	if !g.active() {
		return nil
	}
	if g.maxIters > 0 && iterations >= g.maxIters {
		return &AbortError{Tripped: AbortIterations}
	}
	return g.check()
}

// poll throws the abort through the evaluation's panic channel; it is
// called from inside join scans, whose entry points recover it into an
// ordinary error (see recoverEval).
func (g *budgetGuard) poll() {
	if err := g.check(); err != nil {
		Throw(err)
	}
}

// noteAbortStats gives an abort that carries no partial RunStats yet the
// counters of the evaluation boundary it is crossing: the trip point (a
// guard, a worker, a scan poll) knows which budget tripped, the boundary
// knows how far the work got.
func noteAbortStats(err error, stats RunStats) {
	var ab *AbortError
	if errors.As(err, &ab) && ab.Stats == (RunStats{}) {
		ab.Stats = stats
	}
}

// addFact charges one accepted derived fact and reports the abort once the
// budget is exceeded. Safe to call from parallel workers.
func (g *budgetGuard) addFact() error {
	if !g.active() || g.maxFacts <= 0 {
		return nil
	}
	if atomic.AddInt64(&g.facts, 1) > g.maxFacts {
		return &AbortError{Tripped: AbortFacts}
	}
	return nil
}

// noteFact is addFact throwing through the panic channel — the form the
// sequential insert path uses from inside recovered rule evaluations.
func (g *budgetGuard) noteFact() {
	if err := g.addFact(); err != nil {
		Throw(err)
	}
}
