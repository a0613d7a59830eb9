package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/term"
)

// askView runs a query string through a view and returns the sorted answer
// strings plus the run statistics.
func askView(t *testing.T, v *View, q string) ([]string, RunStats) {
	t.Helper()
	out, stats, err := askViewErr(v, q)
	if err != nil {
		t.Fatalf("view query %q: %v", q, err)
	}
	return out, stats
}

func askViewErr(v *View, q string) ([]string, RunStats, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, RunStats{}, err
	}
	_, facts, stats, err := v.Query(query.Body)
	if err != nil {
		return nil, stats, err
	}
	var out []string
	for _, f := range facts {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out, stats, nil
}

const viewTestSrc = `
edge(a, b). edge(b, c). edge(c, d).
module paths.
export path(bf, ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
`

// TestViewQueryMatchesSystemQuery: the concurrent read-only path and the
// single-caller path produce identical answer sets, and the view reports
// non-trivial statistics for a recursive query.
func TestViewQueryMatchesSystemQuery(t *testing.T) {
	sys := buildSystem(t, viewTestSrc)
	for _, q := range []string{"path(a, X)", "path(X, Y)", "edge(X, Y), edge(Y, Z)"} {
		want := ask(t, sys, q)
		got, stats := askView(t, sys.NewView(nil), q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %q: view answers %v, system answers %v", q, got, want)
		}
		if stats.Answers != len(got) {
			t.Errorf("query %q: stats.Answers = %d, want %d", q, stats.Answers, len(got))
		}
	}
	_, stats := askView(t, sys.NewView(nil), "path(a, X)")
	if stats.Derivations == 0 || stats.Attempts == 0 {
		t.Errorf("recursive query reported no work: %+v", stats)
	}
}

// TestViewSnapshotIsolation: a view holding a base snapshot keeps answering
// from the captured state after new facts are appended; a live view sees
// the appended facts; appends never invalidate the snapshot.
func TestViewSnapshotIsolation(t *testing.T) {
	sys := buildSystem(t, viewTestSrc)
	snap := sys.SnapshotBases()
	pinned := sys.NewView(snap)
	before, _ := askView(t, pinned, "path(a, X)")

	rel, err := sys.BaseRelation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	rel.Insert(relation.NewFact([]term.Term{term.Atom("d"), term.Atom("e")}, nil))

	after, _ := askView(t, pinned, "path(a, X)")
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("snapshot view drifted after append: before %v, after %v", before, after)
	}
	live, _ := askView(t, sys.NewView(nil), "path(a, X)")
	if len(live) != len(before)+1 {
		t.Errorf("live view answers %v, want one more than %v", live, before)
	}
	if !snap.Valid() {
		t.Error("append invalidated the snapshot; appends must not invalidate")
	}

	// A destructive change does invalidate.
	rel.TruncateTo(1)
	if snap.Valid() {
		t.Error("truncation left the snapshot valid")
	}
}

// TestViewSnapshotNewRelationEmpty: a relation registered after capture
// reads as empty through the snapshot (it did not exist at capture), while
// a live view sees it.
func TestViewSnapshotNewRelationEmpty(t *testing.T) {
	sys := buildSystem(t, viewTestSrc)
	snap := sys.SnapshotBases()
	rel, err := sys.BaseRelation("extra", 1)
	if err != nil {
		t.Fatal(err)
	}
	rel.Insert(relation.NewFact([]term.Term{term.Atom("x")}, nil))
	got, _ := askView(t, sys.NewView(snap), "extra(X)")
	if len(got) != 0 {
		t.Errorf("snapshot view sees post-capture relation: %v", got)
	}
	live, _ := askView(t, sys.NewView(nil), "extra(X)")
	if len(live) != 1 {
		t.Errorf("live view answers %v, want 1", live)
	}
}

// TestViewConcurrentQueries: many views query one system concurrently (the
// server's steady state, no writer); every answer set must match the
// single-caller reference. Run under -race this is the engine-level
// concurrent-reader safety check.
func TestViewConcurrentQueries(t *testing.T) {
	sys := buildSystem(t, viewTestSrc)
	queries := []string{"path(a, X)", "path(b, X)", "path(X, Y)", "edge(X, Y), edge(Y, Z)"}
	want := make(map[string]string)
	for _, q := range queries {
		want[q] = fmt.Sprint(ask(t, sys, q))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(g+i)%len(queries)]
				got, _, err := askViewErr(sys.NewView(nil), q)
				if err != nil {
					errs <- fmt.Errorf("query %q: %v", q, err)
					return
				}
				if fmt.Sprint(got) != want[q] {
					errs <- fmt.Errorf("query %q: got %v, want %s", q, got, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestViewBudgetIndependent: a view's budget aborts its own query and
// leaves the owning system's unlimited evaluation untouched.
func TestViewBudgetIndependent(t *testing.T) {
	sys := buildSystem(t, chainFacts(50)+`
module tc.
export tc(bf).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	v := sys.NewView(nil)
	v.Budget = Budget{MaxFacts: 3}
	_, _, err := askViewErr(v, "tc(0, X)")
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Tripped != AbortFacts {
		t.Fatalf("view budget did not trip: %v", err)
	}
	if got := ask(t, sys, "tc(0, X)"); len(got) != 50 {
		t.Fatalf("system evaluation affected by view budget: %d answers, want 50", len(got))
	}
}

// TestViewContextCancel: canceling the view's context aborts the running
// evaluation with a typed error wrapping context.Canceled.
func TestViewContextCancel(t *testing.T) {
	sys := buildSystem(t, chainFacts(200)+`
module tc.
export tc(ff).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := sys.NewView(nil)
	v.Ctx = ctx
	_, _, err := askViewErr(v, "tc(X, Y)")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestViewReadOnlyRejectsUpdates: assert/retract through a pipelined module
// is refused in a read-only evaluation — a concurrent session must not
// mutate shared relations.
func TestViewReadOnlyRejectsUpdates(t *testing.T) {
	sys := buildSystem(t, `
module updater. @pipelining.
export bump(b).
bump(X) :- assert(mark(X)).
end_module.
`)
	_, _, err := askViewErr(sys.NewView(nil), "bump(a)")
	if err == nil {
		t.Fatal("assert through a read-only view succeeded")
	}
	// The owning system still may.
	if _, err := askErr(sys, "bump(b)"); err != nil {
		t.Fatalf("system-path assert failed: %v", err)
	}
}

// TestViewSaveModuleConcurrent: concurrent view calls against a
// save-module share its accumulated state safely and agree on the answers.
func TestViewSaveModuleConcurrent(t *testing.T) {
	sys := buildSystem(t, chainFacts(20)+`
module tc. @save_module.
export tc(bf).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	want := fmt.Sprint(ask(t, sys, "tc(0, X)"))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := fmt.Sprintf("tc(%d, X)", g%4)
			if _, _, err := askViewErr(sys.NewView(nil), q); err != nil {
				errs <- fmt.Errorf("query %q: %v", q, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := fmt.Sprint(ask(t, sys, "tc(0, X)")); got != want {
		t.Errorf("saved state corrupted by concurrent calls: got %v, want %v", got, want)
	}
}

// TestViewSaveModuleSnapshot: a snapshot session's call to a save-module
// answers from the facts below its marks. A live call after a load fills the
// module's saved state with answers derived from the new fact; the snapshot
// session must not read that state, and evaluates privately instead.
func TestViewSaveModuleSnapshot(t *testing.T) {
	sys := buildSystem(t, `
edge(0, 1). edge(1, 2).
module tc. @save_module.
export tc(bf).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	snap := sys.NewView(sys.SnapshotBases())
	edge, err := sys.BaseRelation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	edge.Insert(relation.GroundFact(term.Int(2), term.Int(3)))
	if got := fmt.Sprint(ask(t, sys, "tc(0, Y)")); got != "[(1) (2) (3)]" {
		t.Fatalf("live call after the load: %s", got)
	}
	if got, _ := askView(t, snap, "tc(0, Y)"); fmt.Sprint(got) != "[(1) (2)]" {
		t.Errorf("snapshot session read past its marks: %v, want [(1) (2)]", got)
	}
}

// TestViewDeadlineAbort: a view deadline trips mid-evaluation and surfaces
// as a deadline abort.
func TestViewDeadlineAbort(t *testing.T) {
	sys := buildSystem(t, chainFacts(400)+`
module tc.
export tc(ff).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	v := sys.NewView(nil)
	v.Budget = Budget{Timeout: time.Microsecond}
	_, _, err := askViewErr(v, "tc(X, Y)")
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Tripped != AbortDeadline {
		t.Fatalf("view deadline did not trip: %v", err)
	}
}

// TestExplainConcurrentWithViews: ExplainCall reads the module's program
// cache while concurrent views lazily compile existential variants into it
// (the reach(0, _) query form writes reach/bf/ox into def.progs).
// Regression for an unlocked def.progs read in ExplainCall. The write
// window is one-time, so -race only trips on an unlucky interleaving; the
// deterministic guard is lockcheck, which rejects the unlocked read
// statically — this test pins the runtime behavior both paths rely on.
func TestExplainConcurrentWithViews(t *testing.T) {
	sys := buildSystem(t, `
edge(0, 1). edge(1, 2). edge(2, 3).
module r.
export reach(bf).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
end_module.
`)
	def, ok := sys.Module("r")
	if !ok {
		t.Fatal("module r not installed")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g%2 == 0 {
					// Existence query: compiles (then reuses) the masked
					// reach/bf/ox variant — a write into def.progs.
					if _, _, err := askViewErr(sys.NewView(nil), "reach(0, _)"); err != nil {
						errs <- err
						return
					}
					continue
				}
				out, err := def.ExplainCall(ast.PredKey{Name: "reach", Arity: 2},
					[]term.Term{term.Int(0), term.Int(3)})
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(out, "by rule:") {
					errs <- fmt.Errorf("explanation missing derivation:\n%s", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// planMemoOf snapshots the plan memos of a module's programs: one line per
// entry (query form, rule, schedule) → the clone.
func planMemoOf(def *ModuleDef) map[string]*Compiled {
	out := make(map[string]*Compiled)
	for form, p := range def.Programs() {
		p.plans.mu.Lock()
		for k, c := range p.plans.m {
			out[fmt.Sprintf("%s [%s] %s", form, k.c, k.sched)] = c
		}
		p.plans.mu.Unlock()
	}
	return out
}

// TestPlanMemoConcurrentViews: sixteen views hit one cold query form whose
// rule the planner reorders, at once. Each gets the reference answers;
// between them they leave exactly the memo a single caller leaves — one
// clone per (rule, schedule) they chose, shared, not one per view — and later
// calls reuse those clones pointer for pointer. The memo caches artefacts,
// not choices: after pick grows past edge a call fits a different schedule
// and adds its key instead of running the stale plan. Run under -race
// -cpu=1,4.
func TestPlanMemoConcurrentViews(t *testing.T) {
	src := joinOrderSource("", "edge(X, Y), edge(Y, Z), pick(P), edge(P, X)")
	single := buildSystem(t, src)
	askView(t, single.NewView(nil), "q(P)")
	singleDef, _ := single.Module("m")

	sys := buildSystem(t, src)
	def, _ := sys.Module("m")
	ref, _, err := refCall(sys, parseGoal(t, "q(P)"))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(sortedCopy(ref))
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, _, err := askViewErr(sys.NewView(nil), "q(P)")
			if err != nil || fmt.Sprint(got) != want {
				errs <- fmt.Errorf("concurrent cold query: %v, %v; want %s", got, err, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	memo := planMemoOf(def)
	if len(memo) == 0 {
		t.Fatal("the reordered rule left no planned clone in the memo")
	}
	for key := range planMemoOf(singleDef) {
		if memo[key] == nil {
			t.Errorf("memo lacks %q, which a single caller leaves", key)
		}
	}
	if n := len(planMemoOf(singleDef)); len(memo) != n {
		t.Errorf("16 concurrent views left %d memo entries, a single caller %d: %v", len(memo), n, memo)
	}

	askView(t, sys.NewView(nil), "q(P)")
	for key, c := range planMemoOf(def) {
		if memo[key] != c {
			t.Errorf("a warm call replaced or added memo entry %q", key)
		}
	}

	// A /load-style growth: pick goes from one row to more than edge has,
	// with values no edge starts from, so the answers stay the same.
	pick, err := sys.BaseRelation("pick", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		pick.Insert(relation.GroundFact(term.Int(int64(1000 + i))))
	}
	if got, _ := askView(t, sys.NewView(nil), "q(P)"); fmt.Sprint(got) != want {
		t.Errorf("after the growth the view's answers changed: %v, want %s", got, want)
	}
	grown := planMemoOf(def)
	if len(grown) <= len(memo) {
		t.Errorf("pick outgrowing edge chose no new schedule: memo still %v", grown)
	}
	for key, c := range memo {
		if grown[key] != c {
			t.Errorf("memo entry %q changed after the growth; entries are immutable", key)
		}
	}
}
