package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"coral"
)

const testProgram = `
edge(a, b). edge(b, c). edge(c, d).
module paths.
export path(bf, ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
`

// newTestServer consults src into a fresh system and serves it over a
// loopback httptest server.
func newTestServer(t *testing.T, src string, opts Options) (*coral.System, *httptest.Server) {
	t.Helper()
	sys := coral.New()
	if _, err := sys.Consult(src); err != nil {
		t.Fatalf("consult: %v", err)
	}
	ts := httptest.NewServer(New(sys, opts).Handler())
	t.Cleanup(ts.Close)
	return sys, ts
}

// post sends a JSON body and decodes the response into out (which may be
// an *ErrorResponse for failure paths), returning the status code.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func query(t *testing.T, base, q, session string) *QueryResponse {
	t.Helper()
	var out QueryResponse
	if code := post(t, base+"/query", QueryRequest{Query: q, Session: session}, &out); code != http.StatusOK {
		t.Fatalf("query %q: HTTP %d", q, code)
	}
	return &out
}

func queryErr(t *testing.T, base, q, session string) (int, *ErrorResponse) {
	t.Helper()
	raw, _ := json.Marshal(QueryRequest{Query: q, Session: session})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, &e
}

// sameTuples compares rendered answer sets ignoring order (the engine does
// not promise enumeration order across plans).
func sameTuples(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	return canonTuples(got) == canonTuples(want)
}

func canonTuples(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var b bytes.Buffer
		for _, col := range row {
			b.WriteString(col)
			b.WriteByte('\x00')
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\x01')
	}
	return b.String()
}

func getJSON(c *http.Client, url string) (map[string]any, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testProgram, Options{})
	resp := query(t, ts.URL, "path(a, X)", "")
	if got := fmt.Sprint(resp.Vars); got != "[X]" {
		t.Errorf("vars = %v, want [X]", resp.Vars)
	}
	if len(resp.Tuples) != 3 {
		t.Errorf("tuples = %v, want 3 answers b c d", resp.Tuples)
	}
	if resp.Stats.Answers != 3 || resp.Stats.Derivations == 0 {
		t.Errorf("stats = %+v, want 3 answers and non-zero derivations", resp.Stats)
	}
	if resp.ElapsedUS < 0 {
		t.Errorf("elapsed_us = %d", resp.ElapsedUS)
	}
	// A ground query with no variables answers vars=[] (not null) and one
	// empty tuple for "yes".
	resp = query(t, ts.URL, "edge(a, b)", "")
	if resp.Vars == nil || len(resp.Vars) != 0 {
		t.Errorf("ground query vars = %#v, want empty non-nil", resp.Vars)
	}
	if len(resp.Tuples) != 1 {
		t.Errorf("ground query tuples = %v, want one empty row", resp.Tuples)
	}
}

func TestQueryErrorKinds(t *testing.T) {
	_, ts := newTestServer(t, testProgram, Options{})
	cases := []struct {
		name, body string
		status     int
		kind       string
	}{
		{"empty query", `{"query": ""}`, http.StatusBadRequest, "bad_request"},
		{"malformed json", `{"query": `, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"query": "edge(a, X)", "qurey": "typo"}`, http.StatusBadRequest, "bad_request"},
		{"parse error", `{"query": "edge(a,"}`, http.StatusUnprocessableEntity, "eval"},
		{"unknown session", `{"query": "edge(a, X)", "session": "nope"}`, http.StatusNotFound, "unknown_session"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status || e.Kind != tc.kind {
			t.Errorf("%s: HTTP %d kind %q, want %d %q (error: %s)",
				tc.name, resp.StatusCode, e.Kind, tc.status, tc.kind, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

func TestQueryBudgetAbort(t *testing.T) {
	_, ts := newTestServer(t, testProgram, Options{
		DefaultBudget: coral.Budget{MaxFacts: 1},
	})
	code, e := queryErr(t, ts.URL, "path(X, Y)", "")
	if code != http.StatusRequestTimeout || e.Kind != "abort" {
		t.Fatalf("budget trip: HTTP %d kind %q, want 408 abort", code, e.Kind)
	}
}

func TestLoadCommitAndRollback(t *testing.T) {
	_, ts := newTestServer(t, testProgram, Options{})

	// A committed load is immediately visible to queries.
	var lr LoadResponse
	if code := post(t, ts.URL+"/load", LoadRequest{Program: "edge(d, e)."}, &lr); code != http.StatusOK {
		t.Fatalf("load: HTTP %d", code)
	}
	if resp := query(t, ts.URL, "path(a, X)", ""); len(resp.Tuples) != 4 {
		t.Fatalf("after load: %v, want 4 answers", resp.Tuples)
	}

	// A half-applied load rolls back: the fact inserts, then the duplicate
	// module definition fails, and the committed state must show neither.
	raw, _ := json.Marshal(LoadRequest{Program: "edge(x, y).\nmodule paths.\nexport p(f).\np(a).\nend_module."})
	resp, err := http.Post(ts.URL+"/load", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad load: HTTP %d, want 422", resp.StatusCode)
	}
	got := query(t, ts.URL, "edge(x, Y)", "")
	if len(got.Tuples) != 0 {
		t.Fatalf("rolled-back fact visible: %v", got.Tuples)
	}
	if resp := query(t, ts.URL, "path(a, X)", ""); len(resp.Tuples) != 4 {
		t.Fatalf("rollback lost committed facts: %v", resp.Tuples)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, testProgram, Options{})
	var sr SessionResponse
	if code := post(t, ts.URL+"/session", SessionRequest{}, &sr); code != http.StatusOK {
		t.Fatalf("session open: HTTP %d", code)
	}
	if sr.Session == "" || sr.Snapshot {
		t.Fatalf("session response %+v, want named live session", sr)
	}
	if resp := query(t, ts.URL, "path(a, X)", sr.Session); len(resp.Tuples) != 3 {
		t.Fatalf("session query: %v", resp.Tuples)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+sr.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("session close: HTTP %d", dresp.StatusCode)
	}
	if code, e := queryErr(t, ts.URL, "path(a, X)", sr.Session); code != http.StatusNotFound || e.Kind != "unknown_session" {
		t.Fatalf("closed session query: HTTP %d %q, want 404 unknown_session", code, e.Kind)
	}
	dresp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double close: HTTP %d, want 404", dresp2.StatusCode)
	}
}

func TestSnapshotSessionIsolation(t *testing.T) {
	_, ts := newTestServer(t, testProgram, Options{})
	var sr SessionResponse
	if code := post(t, ts.URL+"/session", SessionRequest{Snapshot: true}, &sr); code != http.StatusOK {
		t.Fatalf("snapshot session: HTTP %d", code)
	}
	before := query(t, ts.URL, "path(a, X)", sr.Session)

	if code := post(t, ts.URL+"/load", LoadRequest{Program: "edge(d, e)."}, nil); code != http.StatusOK {
		t.Fatalf("load: HTTP %d", code)
	}

	// The pinned session keeps seeing the capture-time state; a one-shot
	// live query sees the committed load.
	after := query(t, ts.URL, "path(a, X)", sr.Session)
	if !sameTuples(after.Tuples, before.Tuples) {
		t.Fatalf("snapshot session drifted: before %v, after %v", before.Tuples, after.Tuples)
	}
	if live := query(t, ts.URL, "path(a, X)", ""); len(live.Tuples) != len(before.Tuples)+1 {
		t.Fatalf("live query: %v, want one more than %v", live.Tuples, before.Tuples)
	}

	// A failed load's rollback truncates relations, which invalidates the
	// snapshot for good: the session answers 409 from then on.
	raw, _ := json.Marshal(LoadRequest{Program: "edge(p, q).\nmodule paths.\nexport p(f).\np(a).\nend_module."})
	resp, err := http.Post(ts.URL+"/load", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad load: HTTP %d", resp.StatusCode)
	}
	if code, e := queryErr(t, ts.URL, "path(a, X)", sr.Session); code != http.StatusConflict || e.Kind != "snapshot_invalidated" {
		t.Fatalf("post-rollback snapshot query: HTTP %d %q, want 409 snapshot_invalidated", code, e.Kind)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, testProgram, Options{})
	h, err := getJSON(http.DefaultClient, ts.URL+"/healthz")
	if err != nil || h["status"] != "ok" {
		t.Fatalf("healthz = %v, %v", h, err)
	}
	query(t, ts.URL, "edge(a, X)", "")
	queryErr(t, ts.URL, "edge(a,", "")
	st, err := getJSON(http.DefaultClient, ts.URL+"/stats")
	if err != nil {
		t.Fatal(err)
	}
	if st["queries"].(float64) < 1 || st["errors"].(float64) < 1 {
		t.Errorf("stats = %v, want >=1 query and >=1 error", st)
	}
}

// chainProgram is a linear chain 0 -> 1 -> ... -> n-1 under transitive
// closure: tc(0, X) answers exactly {1..k} when the chain has k+1 nodes,
// so every concurrent response proves the reader saw a committed prefix
// and nothing torn.
func chainProgram(n int) string {
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "edge(%d, %d).\n", i, i+1)
	}
	b.WriteString(`
module tc.
export tc(bf).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	return b.String()
}

// TestConcurrentReadersVersusLoader is the serving race test: many
// readers query while a writer extends the chain through /load. The epoch
// guard means every response must reflect a committed prefix — answers to
// tc(0, X) are exactly {1..k} for some chain length k between the initial
// and final states. A snapshot session opened before the writer starts
// must keep answering the initial set the whole time. CI runs this
// package under -race -cpu=1,4.
func TestConcurrentReadersVersusLoader(t *testing.T) {
	const initial, final = 10, 20
	_, ts := newTestServer(t, chainProgram(initial), Options{})

	var sr SessionResponse
	if code := post(t, ts.URL+"/session", SessionRequest{Snapshot: true}, &sr); code != http.StatusOK {
		t.Fatalf("snapshot session: HTTP %d", code)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)

	// The writer commits one edge per load, growing the chain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := initial - 1; i < final-1; i++ {
			prog := fmt.Sprintf("edge(%d, %d).", i, i+1)
			if code := post(t, ts.URL+"/load", LoadRequest{Program: prog}, nil); code != http.StatusOK {
				errs <- fmt.Errorf("load %q: HTTP %d", prog, code)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	checkPrefix := func(resp *QueryResponse) error {
		k := len(resp.Tuples)
		if k < initial-1 || k > final-1 {
			return fmt.Errorf("answer count %d outside committed range [%d, %d]", k, initial-1, final-1)
		}
		seen := make(map[string]bool, k)
		for _, row := range resp.Tuples {
			seen[row[0]] = true
		}
		for i := 1; i <= k; i++ {
			if !seen[fmt.Sprint(i)] {
				return fmt.Errorf("torn read: %d answers but node %d missing (%v)", k, i, resp.Tuples)
			}
		}
		return nil
	}

	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := checkPrefix(query(t, ts.URL, "tc(0, X)", "")); err != nil {
					errs <- err
					return
				}
				if snap := query(t, ts.URL, "tc(0, X)", sr.Session); len(snap.Tuples) != initial-1 {
					errs <- fmt.Errorf("snapshot session saw %d answers, want %d", len(snap.Tuples), initial-1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the writer finishes every live reader sees the final chain.
	if got := query(t, ts.URL, "tc(0, X)", ""); len(got.Tuples) != final-1 {
		t.Fatalf("final state: %d answers, want %d", len(got.Tuples), final-1)
	}
}

// TestDisconnectMidQueryNoLeak: a client that disconnects mid-evaluation
// must abort the query (request context cancel) and leave no goroutine
// behind.
func TestDisconnectMidQueryNoLeak(t *testing.T) {
	// A dense graph whose full closure takes long enough to cancel into.
	var b strings.Builder
	const n = 120
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(%d, %d).\n", i, (i+1)%n)
		fmt.Fprintf(&b, "edge(%d, %d).\n", i, (i*7+3)%n)
	}
	b.WriteString(`
module tc.
export tc(ff).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	_, ts := newTestServer(t, b.String(), Options{})
	base := runtime.NumGoroutine()
	// A transport of the test's own, without keep-alives: a deadline that
	// expires while the shared default transport is still dialing leaves the
	// finished connection pooled there — two goroutines per connection, for 90
	// idle seconds — and the count below is for the server's and the engine's.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		raw, _ := json.Marshal(QueryRequest{Query: "tc(X, Y)"})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		// The httptest server keeps a few connection goroutines warm;
		// allow a small cushion over the pre-request baseline.
		if n := runtime.NumGoroutine(); n <= base+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after disconnects: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueryTimeoutOption: the server-side wall-clock cap aborts a long
// evaluation with a typed abort response.
func TestQueryTimeoutOption(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(400), Options{
		QueryTimeout: time.Microsecond,
	})
	code, e := queryErr(t, ts.URL, "tc(0, X)", "")
	if code != http.StatusRequestTimeout || e.Kind != "abort" {
		t.Fatalf("query timeout: HTTP %d kind %q, want 408 abort", code, e.Kind)
	}
}
