package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// lintOut runs the multichecker over dirs and returns the exit code and
// finding lines.
func lintOut(t *testing.T, dirs ...string) (int, []string) {
	t.Helper()
	var out, errw strings.Builder
	code := run(dirs, false, &out, &errw)
	if errw.Len() > 0 && code != 2 {
		t.Fatalf("unexpected stderr: %s", errw.String())
	}
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	return code, lines
}

// TestBudgetpollSeededViolation: the fixture's one unpolled scan loop is
// flagged; the polled, annotated, single-shot and closure shapes are not.
func TestBudgetpollSeededViolation(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/budgetpoll")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if len(lines) != 1 {
		t.Fatalf("want exactly the seeded violation, got:\n%s", strings.Join(lines, "\n"))
	}
	f := lines[0]
	if !strings.Contains(f, "[budgetpoll]") || !strings.Contains(f, "budget poll") {
		t.Errorf("finding lacks analyzer tag or message: %s", f)
	}
	if !strings.Contains(f, "bad.go:20:") {
		t.Errorf("finding not at the seeded loop (bad.go:20): %s", f)
	}
}

// TestPaniccheckFixture: one bare panic flagged; helper and both
// annotation forms exempt.
func TestPaniccheckFixture(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/paniccheck")
	if code != 1 || len(lines) != 1 {
		t.Fatalf("exit %d, findings:\n%s", code, strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "[paniccheck]") || !strings.Contains(lines[0], "panic outside Throw/throwf") {
		t.Errorf("unexpected finding: %s", lines[0])
	}
}

// TestErrwrapFixture: the flattened %v error, the errors.New(err.Error())
// rebuild, and the err.Error() format argument are all flagged; the
// wrapped, non-error and fresh-message shapes are not. The %v case at
// bad.go:11 is the original seeded violation — its continued detection
// proves the tightening did not regress the old pattern.
func TestErrwrapFixture(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/errwrap")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if len(lines) != 3 {
		t.Fatalf("want exactly the three seeded violations, got:\n%s", strings.Join(lines, "\n"))
	}
	for _, f := range lines {
		if !strings.Contains(f, "[errwrap]") {
			t.Errorf("finding lacks the analyzer tag: %s", f)
		}
	}
	if !strings.Contains(lines[0], "bad.go:11:") || !strings.Contains(lines[0], "%w") {
		t.Errorf("first finding not the original %%v flattening at bad.go:11: %s", lines[0])
	}
	if !strings.Contains(lines[1], "bad.go:27:") || !strings.Contains(lines[1], "errors.New(err.Error())") {
		t.Errorf("second finding not the errors.New rebuild at bad.go:27: %s", lines[1])
	}
	if !strings.Contains(lines[2], "bad.go:31:") || !strings.Contains(lines[2], "err.Error() passed to fmt.Errorf") {
		t.Errorf("third finding not the stringified argument at bad.go:31: %s", lines[2])
	}
}

// TestOpcheckFixture: the seeded dispatch gap (opD uncovered), the disasm
// switch whose default must not count as covering opC and opD, and the
// marker that drifted off its switch are all flagged; the fully covered
// switches, the second opcode type, and the unmarked partial switch in
// good.go are not.
func TestOpcheckFixture(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/opcheck")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if len(lines) != 3 {
		t.Fatalf("want exactly the three seeded violations, got:\n%s", strings.Join(lines, "\n"))
	}
	for _, f := range lines {
		if !strings.Contains(f, "[opcheck]") {
			t.Errorf("finding lacks the analyzer tag: %s", f)
		}
	}
	if !strings.Contains(lines[0], "bad.go:18:") || !strings.Contains(lines[0], "missing opD") {
		t.Errorf("first finding not the dispatch gap at bad.go:18: %s", lines[0])
	}
	if !strings.Contains(lines[1], "bad.go:31:") || !strings.Contains(lines[1], "missing opC, opD") {
		t.Errorf("second finding not the disasm gaps at bad.go:31: %s", lines[1])
	}
	if !strings.Contains(lines[2], "bad.go:44:") || !strings.Contains(lines[2], "not attached to a switch") {
		t.Errorf("third finding not the drifted marker at bad.go:44: %s", lines[2])
	}
}

// TestLockcheckFixture: the unlocked guarded-field access and the
// guarded_by annotation naming a non-mutex are flagged; the locked,
// freshly constructed and lint:allow shapes are not.
func TestLockcheckFixture(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/lockcheck")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if len(lines) != 2 {
		t.Fatalf("want exactly the two seeded violations, got:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "bad.go:16:") || !strings.Contains(lines[0], "cache.m is guarded_by(mu)") {
		t.Errorf("first finding not the unlocked access at bad.go:16: %s", lines[0])
	}
	if !strings.Contains(lines[1], "bad.go:44:") || !strings.Contains(lines[1], "does not name a sync.Mutex") {
		t.Errorf("second finding not the annotation typo at bad.go:44: %s", lines[1])
	}
	for _, f := range lines {
		if !strings.Contains(f, "[lockcheck]") {
			t.Errorf("finding lacks the analyzer tag: %s", f)
		}
	}
}

// TestRoviolFixture: a direct mutator on a Prefix unwrap, a mutator
// reached through the local unwrap helper (the hashRelOf shape), and a
// stored writable alias are flagged; read-only unwraps, handing the
// Prefix around, and the lint:allow shape are not.
func TestRoviolFixture(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/roviol")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if len(lines) != 3 {
		t.Fatalf("want exactly the three seeded violations, got:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "bad.go:16:") || !strings.Contains(lines[0], "Clear on a snapshot-backed relation") {
		t.Errorf("first finding not the direct mutation at bad.go:16: %s", lines[0])
	}
	if !strings.Contains(lines[1], "bad.go:21:") || !strings.Contains(lines[1], "TruncateTo on a snapshot-backed relation") {
		t.Errorf("second finding not the helper-laundered mutation at bad.go:21: %s", lines[1])
	}
	if !strings.Contains(lines[2], "bad.go:29:") || !strings.Contains(lines[2], "stored into a writable location") {
		t.Errorf("third finding not the stored alias at bad.go:29: %s", lines[2])
	}
	for _, f := range lines {
		if !strings.Contains(f, "[roviol]") {
			t.Errorf("finding lacks the analyzer tag: %s", f)
		}
	}
}

// TestCtxpropFixture: a manufactured root context, an entry point with no
// cancellation channel, a dropped ctx parameter and a blank ctx parameter
// are flagged; the forwarding, receiver-carried and annotated shapes are
// not.
func TestCtxpropFixture(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/ctxprop")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if len(lines) != 4 {
		t.Fatalf("want exactly the four seeded violations, got:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "bad.go:10:") || !strings.Contains(lines[0], "context.Background()") {
		t.Errorf("first finding not the manufactured root at bad.go:10: %s", lines[0])
	}
	if !strings.Contains(lines[1], "bad.go:14:") || !strings.Contains(lines[1], "QueryNoChannel carries no context or budget") {
		t.Errorf("second finding not the bare entry point at bad.go:14: %s", lines[1])
	}
	if !strings.Contains(lines[2], "bad.go:19:") || !strings.Contains(lines[2], "never used") {
		t.Errorf("third finding not the dropped ctx at bad.go:19: %s", lines[2])
	}
	if !strings.Contains(lines[3], "bad.go:23:") || !strings.Contains(lines[3], "blank context.Context parameter") {
		t.Errorf("fourth finding not the blank ctx at bad.go:23: %s", lines[3])
	}
	for _, f := range lines {
		if !strings.Contains(f, "[ctxprop]") {
			t.Errorf("finding lacks the analyzer tag: %s", f)
		}
	}
}

// TestGuardannotFixture: the undeclared mutex-adjacent field and the
// rationale-free "unguarded:" marker are flagged; the annotated struct
// and the lock-free struct are not.
func TestGuardannotFixture(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/guardannot")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if len(lines) != 2 {
		t.Fatalf("want exactly the two seeded violations, got:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "bad.go:19:") || !strings.Contains(lines[0], "missing.cache") {
		t.Errorf("first finding not the undeclared field at bad.go:19: %s", lines[0])
	}
	if !strings.Contains(lines[1], "bad.go:20:") || !strings.Contains(lines[1], "missing.bare") {
		t.Errorf("second finding not the rationale-free marker at bad.go:20: %s", lines[1])
	}
	for _, f := range lines {
		if !strings.Contains(f, "[guardannot]") {
			t.Errorf("finding lacks the analyzer tag: %s", f)
		}
	}
}

// TestFindingsSorted: a multi-directory run comes back ordered by
// (file, line, column, analyzer) — numerically by position, not by the
// directory order given on the command line.
func TestFindingsSorted(t *testing.T) {
	code, lines := lintOut(t, "testdata/src/paniccheck", "testdata/src/errwrap", "testdata/src/budgetpoll")
	if code != 1 || len(lines) != 5 {
		t.Fatalf("exit %d, findings:\n%s", code, strings.Join(lines, "\n"))
	}
	want := []string{
		"budgetpoll/bad.go:20:",
		"errwrap/bad.go:11:", "errwrap/bad.go:27:", "errwrap/bad.go:31:",
		"paniccheck/bad.go:11:",
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("finding %d: want %s, got %s", i, w, lines[i])
		}
	}
}

// TestJSONOutput: -json emits the findings as a structured array with the
// same content and order as the text form.
func TestJSONOutput(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"testdata/src/paniccheck"}, true, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errw.String())
	}
	var findings []finding
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("want the one seeded finding, got %d:\n%s", len(findings), out.String())
	}
	f := findings[0]
	if f.Analyzer != "paniccheck" || f.Line != 11 || f.Col == 0 ||
		!strings.HasSuffix(f.File, "bad.go") ||
		!strings.Contains(f.Message, "panic outside Throw/throwf") {
		t.Errorf("finding fields wrong: %+v", f)
	}
}

// TestJSONCleanOutput: a clean -json run emits an empty array (machine
// consumers must not have to special-case "no findings").
func TestJSONCleanOutput(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"../../internal/term"}, true, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; out: %s", code, out.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean JSON run: want [], got %q", out.String())
	}
}

// TestRealPackagesClean: the suite the CI runs must pass over everything
// it guards — every internal and cmd package, including the annotated
// engine, relation and serve concurrency contracts.
func TestRealPackagesClean(t *testing.T) {
	code, lines := lintOut(t, "../../internal/...", "../../cmd/...")
	if code != 0 {
		t.Fatalf("exit = %d, findings:\n%s", code, strings.Join(lines, "\n"))
	}
}

// TestExitCodes: no arguments and unreadable directories are load errors
// (2), distinct from findings (1).
func TestExitCodes(t *testing.T) {
	if code, _ := lintOut(t, ""); code != 2 {
		t.Errorf("empty dir name: exit %d, want 2", code)
	}
	var out, errw strings.Builder
	if code := run(nil, false, &out, &errw); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code, _ := lintOut(t, "testdata/no-such-dir"); code != 2 {
		t.Errorf("missing dir: exit %d, want 2", code)
	}
}
