// Package serve is the coral data server: HTTP (JSON over POST) access to
// one shared coral.System for many concurrent clients — the data-server
// architecture of paper §2 (modules compiled once, then queried repeatedly
// against shared EDB relations) grown into a network service.
//
// Concurrency (DESIGN.md §5.16) follows a single rule: queries are readers,
// loads are writers, and an epoch guard (an RWMutex) fences them. Every
// query evaluates under the guard's read side with a connection-scoped
// context and budget (request cancel → evaluation abort); a load takes the
// write side, which drains in-flight readers before any relation mutates,
// and rolls the database back to its pre-load marks if the program fails
// half-way. Sessions opened with snapshot isolation additionally pin every
// base relation to its extent at open time, so a long-lived reader sees one
// consistent state across queries no matter how many loads commit in
// between.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coral"
	"coral/internal/ast"
	"coral/internal/relation"
)

// Options configures a Server.
type Options struct {
	// DefaultBudget bounds each query that does not run in a session with
	// its own budget. The zero value is unlimited.
	DefaultBudget coral.Budget
	// QueryTimeout caps each request's evaluation wall-clock via the
	// request context (independent of budget deadlines). 0 disables.
	QueryTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 uses 1 MiB.
	MaxBodyBytes int64
}

// Server serves queries from many concurrent clients against one shared
// coral.System.
type Server struct {
	sys  *coral.System // unguarded: set before serving, read-only after
	opts Options       // unguarded: set before serving, read-only after

	// epoch is the reader/writer fence: every query evaluates under RLock,
	// every load mutates under Lock (draining in-flight readers first).
	epoch sync.RWMutex

	sessMu   sync.Mutex
	sessions map[string]*coral.Session // guarded_by(sessMu)
	nextSess atomic.Int64              // unguarded: atomic

	queries atomic.Int64 // unguarded: atomic
	loads   atomic.Int64 // unguarded: atomic
	errs    atomic.Int64 // unguarded: atomic
	started time.Time    // unguarded: set once in New, read-only after
}

// New creates a server around an already-configured system.
func New(sys *coral.System, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	return &Server{
		sys:      sys,
		opts:     opts,
		sessions: make(map[string]*coral.Session),
		started:  time.Now(),
	}
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /load", s.handleLoad)
	mux.HandleFunc("POST /session", s.handleSessionOpen)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// QueryRequest asks for one conjunctive query evaluation.
type QueryRequest struct {
	// Query is the conjunctive query text, e.g. "path(a, X)".
	Query string `json:"query"`
	// Session evaluates in a previously opened session (its snapshot and
	// budget); empty evaluates a one-shot live query under the server's
	// default budget.
	Session string `json:"session,omitempty"`
}

// QueryResponse carries one query's answers.
type QueryResponse struct {
	Vars []string `json:"vars"`
	// Tuples render each answer's bindings with the same term syntax the
	// REPL prints, one string per column.
	Tuples    [][]string `json:"tuples"`
	Stats     RunStats   `json:"stats"`
	ElapsedUS int64      `json:"elapsed_us"`
}

// RunStats is the JSON shape of engine run statistics.
type RunStats struct {
	Answers        int `json:"answers"`
	Derivations    int `json:"derivations"`
	Iterations     int `json:"iterations"`
	ParallelRounds int `json:"parallel_rounds,omitempty"`
	FactsStored    int `json:"facts_stored,omitempty"`
}

// ErrorResponse is the uniform error body: every failure path returns one,
// with Kind distinguishing protocol errors from evaluation aborts.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind is one of "bad_request", "parse", "eval", "abort",
	// "unknown_session", "snapshot_invalidated".
	Kind string `json:"kind"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		s.writeErr(w, http.StatusBadRequest, "bad_request", "missing query")
		return
	}
	sess := s.sys.NewSession()
	sess.SetBudget(s.opts.DefaultBudget)
	if req.Session != "" {
		s.sessMu.Lock()
		named, ok := s.sessions[req.Session]
		s.sessMu.Unlock()
		if !ok {
			s.writeErr(w, http.StatusNotFound, "unknown_session", "unknown session "+req.Session)
			return
		}
		sess = named
	}

	ctx := r.Context()
	if s.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
		defer cancel()
	}

	// Reader side of the epoch guard: the evaluation reads shared
	// relations, so it must not overlap a load.
	s.epoch.RLock()
	valid := sess.Valid()
	var ans *coral.Answers
	var err error
	start := time.Now()
	if valid {
		ans, err = sess.Query(ctx, req.Query)
	}
	elapsed := time.Since(start)
	s.epoch.RUnlock()

	if !valid {
		// A destructive change (a rolled-back load, a delete) outlived the
		// session's snapshot; its consistent view is gone for good.
		s.writeErr(w, http.StatusConflict, "snapshot_invalidated",
			"the session's snapshot was invalidated by a destructive change; open a new session")
		return
	}
	if err != nil {
		s.writeQueryErr(w, err)
		return
	}
	s.queries.Add(1)
	resp := QueryResponse{
		Vars:      ans.Vars,
		Tuples:    renderTuples(ans.Tuples),
		Stats:     statsJSON(ans.Stats),
		ElapsedUS: elapsed.Microseconds(),
	}
	if resp.Vars == nil {
		resp.Vars = []string{}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// LoadRequest installs program text — facts, modules, indexes — into the
// shared system (the admin endpoint of the data server).
type LoadRequest struct {
	Program string `json:"program"`
}

// LoadResponse reports a committed load.
type LoadResponse struct {
	// InlineQueries counts "?- ..." results evaluated during the load.
	InlineQueries int `json:"inline_queries"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Program == "" {
		s.writeErr(w, http.StatusBadRequest, "bad_request", "missing program")
		return
	}
	// Writer side of the epoch guard: waits for in-flight queries to
	// drain, and fences new ones until the load commits or rolls back.
	s.epoch.Lock()
	marks := baseMarks(s.sys)
	// Inline "?- ..." queries in the program evaluate on the system itself,
	// so they run under the server's default budget — a runaway inline
	// query must abort (and roll the load back), not hang the write lock
	// and brick the server. Safe to swap under the write lock: every
	// concurrent query evaluates in a session with its own budget.
	prevBudget := s.sys.Budget()
	s.sys.SetBudget(s.opts.DefaultBudget)
	results, err := s.sys.Consult(req.Program)
	s.sys.SetBudget(prevBudget)
	if err != nil {
		// A half-applied load must not leak torn state into readers: every
		// base relation is truncated back to its pre-load mark (relations
		// the load created go back to empty). The truncation bumps the
		// mutation counters, so open snapshot sessions report invalid
		// instead of silently reading a state that never existed.
		rollbackTo(s.sys, marks)
		s.epoch.Unlock()
		var ab *coral.AbortError
		if errors.As(err, &ab) {
			s.writeErr(w, http.StatusRequestTimeout, "abort", err.Error())
			return
		}
		s.writeErr(w, http.StatusUnprocessableEntity, "parse", err.Error())
		return
	}
	s.epoch.Unlock()
	s.loads.Add(1)
	s.writeJSON(w, http.StatusOK, LoadResponse{InlineQueries: len(results)})
}

// SessionRequest opens a session.
type SessionRequest struct {
	// Snapshot pins the session to the current database state: its queries
	// keep seeing that state across later loads.
	Snapshot bool `json:"snapshot,omitempty"`
	// TimeoutMS / MaxFacts / MaxIterations set the session's budget;
	// zero fields inherit the server default.
	TimeoutMS     int `json:"timeout_ms,omitempty"`
	MaxFacts      int `json:"max_facts,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
}

// SessionResponse names the opened session.
type SessionResponse struct {
	Session  string `json:"session"`
	Snapshot bool   `json:"snapshot"`
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	var sess *coral.Session
	if req.Snapshot {
		// Snapshot capture reads every relation's extent; it is a reader
		// like any query and must not overlap a load.
		s.epoch.RLock()
		sess = s.sys.SnapshotSession()
		s.epoch.RUnlock()
	} else {
		sess = s.sys.NewSession()
	}
	b := s.opts.DefaultBudget
	if req.TimeoutMS > 0 {
		b.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if req.MaxFacts > 0 {
		b.MaxFacts = req.MaxFacts
	}
	if req.MaxIterations > 0 {
		b.MaxIterations = req.MaxIterations
	}
	sess.SetBudget(b)
	id := "s" + strconv.FormatInt(s.nextSess.Add(1), 10)
	s.sessMu.Lock()
	s.sessions[id] = sess
	s.sessMu.Unlock()
	s.writeJSON(w, http.StatusOK, SessionResponse{Session: id, Snapshot: req.Snapshot})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sessMu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.sessMu.Unlock()
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown_session", "unknown session "+id)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StatsResponse reports server-level counters.
type StatsResponse struct {
	Queries  int64   `json:"queries"`
	Loads    int64   `json:"loads"`
	Errors   int64   `json:"errors"`
	Sessions int     `json:"sessions"`
	UptimeS  float64 `json:"uptime_s"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.sessMu.Lock()
	n := len(s.sessions)
	s.sessMu.Unlock()
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Queries:  s.queries.Load(),
		Loads:    s.loads.Load(),
		Errors:   s.errs.Load(),
		Sessions: n,
		UptimeS:  time.Since(s.started).Seconds(),
	})
}

// decode reads a JSON request body, answering a well-formed error on any
// malformed input. Unknown fields are rejected so client typos surface.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad_request", "malformed request: "+err.Error())
		return false
	}
	return true
}

// writeQueryErr maps an evaluation failure to a status and kind: budget and
// cancellation aborts are 408 (the request asked for more than its limits
// allow), everything else is 422.
func (s *Server) writeQueryErr(w http.ResponseWriter, err error) {
	var ab *coral.AbortError
	if errors.As(err, &ab) {
		s.writeErr(w, http.StatusRequestTimeout, "abort", err.Error())
		return
	}
	s.writeErr(w, http.StatusUnprocessableEntity, "eval", err.Error())
}

func (s *Server) writeErr(w http.ResponseWriter, status int, kind, msg string) {
	s.errs.Add(1)
	s.writeJSON(w, status, ErrorResponse{Error: msg, Kind: kind})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// renderTuples renders answers with Term.String — the same syntax the REPL
// prints, so server answers compare byte-for-byte with library answers.
func renderTuples(tuples []coral.Tuple) [][]string {
	out := make([][]string, len(tuples))
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, arg := range t {
			row[j] = arg.String()
		}
		out[i] = row
	}
	return out
}

func statsJSON(st coral.RunStats) RunStats {
	return RunStats{
		Answers:        st.Answers,
		Derivations:    st.Derivations,
		Iterations:     st.Iterations,
		ParallelRounds: st.ParallelRounds,
		FactsStored:    st.FactsStored,
	}
}

// baseMarks snapshots every hash base relation's extent — the rollback
// point of one load.
func baseMarks(sys *coral.System) map[ast.PredKey]relation.Mark {
	marks := make(map[ast.PredKey]relation.Mark)
	sys.Engine().Bases(func(key ast.PredKey, r relation.Relation) {
		if hr, ok := r.(*relation.HashRelation); ok {
			marks[key] = hr.Snapshot()
		}
	})
	return marks
}

// rollbackTo truncates every hash base relation back to its pre-load mark;
// relations the failed load created (absent from marks) go back to empty.
func rollbackTo(sys *coral.System, marks map[ast.PredKey]relation.Mark) {
	sys.Engine().Bases(func(key ast.PredKey, r relation.Relation) {
		hr, ok := r.(*relation.HashRelation)
		if !ok {
			return
		}
		mk, had := marks[key]
		if !had {
			mk = 0
		}
		if hr.Snapshot() > mk {
			hr.TruncateTo(mk)
		}
	})
}
