package serve

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"coral"
	"coral/internal/workload"
)

// Differential serving test: for every fixpoint strategy, sequential and
// parallel, eight concurrent clients hammering a shared server must get
// exactly the answers a fresh single-threaded coral.System computes for the
// same program — concurrency, snapshot sessions and parallel fixpoints must
// not change one tuple. (The engine's own paths are held to the reference
// evaluator in internal/engine/diff_test.go.)

// diffQueries mixes bound and free recursive queries with base joins.
func diffQueries() []string {
	return []string{
		"tc(0, X)",
		"tc(5, X)",
		"tc(X, Y)",
		"edge(X, Y), edge(Y, X)",
		"edge(X, Y), tc(Y, Z)",
	}
}

// referenceAnswers evaluates the queries on a fresh single-threaded
// system — the canonical answer set every serving configuration is held
// to.
func referenceAnswers(t *testing.T, program string, queries []string) map[string][][]string {
	t.Helper()
	sys := coral.New()
	sys.SetParallelism(1)
	if _, err := sys.Consult(program); err != nil {
		t.Fatalf("reference consult: %v", err)
	}
	want := make(map[string][][]string, len(queries))
	for _, q := range queries {
		ans, err := sys.Query(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		rows := make([][]string, len(ans.Tuples))
		for i, tu := range ans.Tuples {
			row := make([]string, len(tu))
			for j, arg := range tu {
				row[j] = arg.String()
			}
			rows[i] = row
		}
		want[q] = rows
	}
	return want
}

func TestDifferentialServing(t *testing.T) {
	program := workload.RandomGraph(16, 44, 17) + workload.TCModule("")
	queries := diffQueries()
	want := referenceAnswers(t, program, queries)

	strategies := []struct{ name, ann string }{
		{"bsn", ""},
		{"psn", "@psn.\n"},
		{"naive", "@naive.\n"},
	}
	for _, strat := range strategies {
		stratProgram := workload.RandomGraph(16, 44, 17) + workload.TCModule(strat.ann)
		stratWant := want
		if strat.ann != "" {
			// Each strategy gets its own reference run too, proving the
			// annotation itself does not change answers before we serve.
			stratWant = referenceAnswers(t, stratProgram, queries)
			for q := range want {
				if !sameTuples(stratWant[q], want[q]) {
					t.Fatalf("%s: strategy changed reference answers for %q", strat.name, q)
				}
			}
		}
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", strat.name, par), func(t *testing.T) {
				runServingDiff(t, stratProgram, queries, stratWant, par)
			})
		}
	}
}

// runServingDiff serves one configured system to 8 concurrent clients
// (half in snapshot sessions, half one-shot) and checks every response
// against the reference answers.
func runServingDiff(t *testing.T, program string, queries []string, want map[string][][]string, parallelism int) {
	sys := coral.New()
	sys.SetParallelism(parallelism)
	if _, err := sys.Consult(program); err != nil {
		t.Fatalf("consult: %v", err)
	}
	ts := httptest.NewServer(New(sys, Options{}).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			session := ""
			if c%2 == 0 {
				var sr SessionResponse
				if code := post(t, ts.URL+"/session", SessionRequest{Snapshot: true}, &sr); code != 200 {
					errs <- fmt.Errorf("client %d: session open HTTP %d", c, code)
					return
				}
				session = sr.Session
			}
			for i := 0; i < len(queries); i++ {
				q := queries[(c+i)%len(queries)]
				resp := query(t, ts.URL, q, session)
				if !sameTuples(resp.Tuples, want[q]) {
					errs <- fmt.Errorf("client %d query %q: got %d tuples, want %d (answers diverged)",
						c, q, len(resp.Tuples), len(want[q]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
