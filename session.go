package coral

import (
	"context"

	"coral/internal/engine"
	"coral/internal/parser"
)

// Session is a connection-scoped, read-only window onto a System — the unit
// the coral server hands each client. A session carries its own evaluation
// budget, takes a per-query context (request cancellation aborts the
// running evaluation with an *AbortError), and optionally pins every base
// relation to a snapshot taken at session start, so all of its queries see
// one consistent database state however many append-only fact loads commit
// in between.
//
// Any number of sessions may query concurrently over one System. Sessions
// never write: consults, asserts and retracts go through the owning System,
// and the caller must fence those writes from in-flight session queries
// (the server's epoch guard does; see DESIGN.md §5.16). Configure a session
// (SetBudget) before issuing queries from multiple goroutines.
type Session struct {
	sys    *System
	snap   *engine.BaseSnapshot
	budget Budget
}

// RunStats reports what one evaluation did; see engine.RunStats.
type RunStats = engine.RunStats

// NewSession opens a live-reading session: queries see the current extent
// of every base relation at the time they run.
func (s *System) NewSession() *Session {
	return &Session{sys: s}
}

// SnapshotSession opens a snapshot-isolated session: every base relation is
// pinned to its extent right now, and all of the session's queries read
// that state. Must not run concurrently with a writer — capture it under
// the same exclusion a query needs (the server takes the epoch guard's read
// side).
func (s *System) SnapshotSession() *Session {
	return &Session{sys: s, snap: s.eng.SnapshotBases()}
}

// SetBudget bounds each subsequent query of this session independently of
// the owning System's budget. Deadlines anchor when each query starts.
func (se *Session) SetBudget(b Budget) { se.budget = b }

// Budget returns the session's evaluation budget.
func (se *Session) Budget() Budget { return se.budget }

// Snapshotted reports whether the session reads a pinned snapshot (false:
// live extents).
func (se *Session) Snapshotted() bool { return se.snap != nil }

// Valid reports whether the session's snapshot still is the consistent
// state it captured. Append-only loads never invalidate it; destructive
// changes (deletes, a rolled-back load) do, and the session's queries
// should be refused once they have. Live sessions are always valid.
func (se *Session) Valid() bool {
	return se.snap == nil || se.snap.Valid()
}

// Query parses and evaluates a conjunctive query through the session,
// materializing all answers. ctx cancellation (client disconnect, request
// deadline) aborts the evaluation with an *AbortError; nil is accepted and
// means no context. Answers.Stats reports what the evaluation did.
func (se *Session) Query(ctx context.Context, q string) (*Answers, error) {
	pq, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	v := se.sys.eng.NewView(se.snap)
	v.Ctx = ctx
	v.Budget = se.budget
	vars, facts, stats, err := v.Query(pq.Body)
	if err != nil {
		return nil, err
	}
	return newAnswers(q, vars, facts, stats), nil
}
