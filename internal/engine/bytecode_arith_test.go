package engine

import (
	"strings"
	"testing"
)

// bcEdgeSrc drives every corner of the register machine's arithmetic and
// comparison surface from source: overflow promotion to Big (+, -, *),
// division and mod, abs on negative integers and on floats, float
// arithmetic, ordering comparisons over integers, floats and atoms,
// Int-vs-Float == and =, equality tests with arithmetic on either, both,
// and neither side, functor match programs with repeated variables, and a
// negation probe. The a* rules carry arithmetic results of 256 or more and
// negative ones (outside Go's preallocated small integers) into a later
// repeated-variable match, pattern fill, comparison and head. One export,
// tagged tuples, no magic rewriting — so every rule compiles and runs on
// the machine.
const bcEdgeSrc = `
big(4611686018427387904).
seven(7).
fl(2.5).
n(1). n(2). n(3).
at(a). at(c).
sf(f(1), f(1)). sf(f(2), f(3)).
v(300). v(-7). v(-8).
d(300, 300). d(-7, -7). d(-8, 3).
g(f(300), a). g(f(-7), b).
module bcedge.
export r(ff).
@rewrite none.
r(add, X) :- big(B), X = B + B.
r(subo, X) :- big(B), X = 0 - B - B - B.
r(mulo, X) :- big(B), X = B * 4.
r(divi, X) :- big(B), X = B / 3.
r(modi, X) :- big(B), X = B mod 5.
r(absn, X) :- seven(N), X = abs(0 - N).
r(absp, X) :- seven(N), X = abs(N).
r(absf, X) :- fl(F), X = abs(0 - F).
r(fadd, X) :- fl(F), X = F + F.
r(ltat, X) :- at(X), X < b.
r(fcmp, N) :- fl(F), n(N), F < N.
r(gei, X) :- n(X), X >= 2.
r(lei, X) :- n(X), X =< 2.
r(gti, X) :- n(X), X > 2.
r(eqi, X) :- n(X), X == 2.
r(nei, X) :- n(X), X != 2.
r(beq, N) :- n(N), N + 1 == 1 + N.
r(teq, N) :- n(N), M = N + 1, M = N + 1.
r(tra, A) :- at(A), n(N), A = N + 0.
r(tla, A) :- n(N), at(A), N + 0 = A.
r(seq, A) :- at(A), A = A.
r(fun, X) :- sf(f(X), f(X)).
r(cns, X) :- sf(f(1), f(X)).
r(negu, X) :- n(X), not sf(f(X), f(X)).
r(ifeq, N) :- n(N), N == 2.0.
r(ifas, N) :- n(N), N = 2.0.
r(acmp, X) :- n(N), X = N * 100, v(X).
r(acmn, X) :- n(N), X = 0 - N - 5, d(X, X).
r(apat, Y) :- n(N), X = N * 100, g(f(X), Y).
r(apan, Y) :- n(N), X = 0 - N - 5, g(f(X), Y).
r(agt, N) :- n(N), X = N * 200, X > 300.
r(alt, N) :- n(N), X = 0 - N * 200, X < -300.
r(ahd, X) :- n(N), X = N * 1000 - 2500.
r(ahf, f(X, Y)) :- n(N), X = N * 300, Y = 0 - X.
end_module.
`

// TestBytecodeArithEdgeCases runs bcEdgeSrc with the machine on and off:
// identical answers in identical order, and spot checks pin the
// interesting results — 2^62+2^62 promoted to Big, abs(-7), float
// addition, the atom ordering — so a silently-empty differential cannot
// pass.
func TestBytecodeArithEdgeCases(t *testing.T) {
	on := diffGoal(t, bcEdgeSrc, "r(T, X)")
	for _, want := range []string{
		"(add, 9223372036854775808n)",    // + overflow -> Big
		"(subo, -13835058055282163712n)", // - overflow -> Big
		"(mulo, 18446744073709551616n)",  // * overflow -> Big
		"(divi, 1537228672809129301)",
		"(modi, 4)",
		"(absn, 7)",
		"(absp, 7)",
		"(absf, 2.5)",
		"(fadd, 5.0)",
		"(ltat, a)", // atom ordering via term.Compare
		"(fcmp, 3)", // float < int via NumCompare
		"(gti, 3)",
		"(eqi, 2)",
		"(beq, 1)", // arithmetic on both sides of ==
		"(teq, 1)", // bound-variable = arithmetic test
		"(seq, a)", // structural = on both sides
		"(fun, 1)", // functor descent with repeated variable
		"(negu, 3)",
		"(ifeq, 2)", // Int == Float compares numerically
		"(ifas, 2)", // Int = Float tests numerically
		"(acmp, 300)",
		"(acmn, -7)",
		"(apat, a)",
		"(apan, b)",
		"(agt, 2)",
		"(alt, 3)",
		"(ahd, -1500)",
		"(ahd, 500)",
		"(ahf, f(900, -900))",
	} {
		if !containsString(on, want) {
			t.Errorf("missing %s in %v", want, on)
		}
	}
	for _, absent := range []string{"(tra", "(tla", "(fun, 2)", "(negu, 1)",
		"(ifeq, 1)", "(ifas, 3)", "(acmn, -8)", "(agt, 1)", "(alt, 1)"} {
		for _, got := range on {
			if strings.HasPrefix(got, absent) {
				t.Errorf("unexpected answer %s", got)
			}
		}
	}
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestBytecodeRuntimeErrorParity: compiled arithmetic must throw the same
// evaluation errors as the interpreter — division by zero, mod by zero,
// and mod on floats — surfaced at the call boundary in both settings.
func TestBytecodeRuntimeErrorParity(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"div-zero", "q(X) :- z(Z), X = 1 / Z.", "division by zero"},
		{"mod-zero", "q(X) :- z(Z), X = 1 mod Z.", "mod by zero"},
		{"mod-float", "q(X) :- fz(F), X = F mod 2.", "mod"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// @eager: the fixpoint runs inside Call, so the throw surfaces
			// as Call's error instead of escaping a lazy Next.
			src := "z(0).\nfz(1.5).\nmodule m.\nexport q(f).\n@rewrite none.\n@eager.\n" + tc.body + "\nend_module.\n"
			sys, err := LoadSystem(src)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			goal := parseGoal(t, "q(X)")
			_, _, refErr := refCall(sys, goal)
			_, engErr := engineCall(sys, goal)
			for side, callErr := range map[string]error{"reference": refErr, "engine": engErr} {
				if callErr == nil {
					t.Fatalf("%s: no error from %s", side, tc.name)
				}
				if !strings.Contains(callErr.Error(), tc.want) {
					t.Fatalf("%s: error %q does not mention %q", side, callErr, tc.want)
				}
			}
			if refErr.Error() != engErr.Error() {
				t.Errorf("error text diverged\nreference: %s\nengine:    %s", refErr, engErr)
			}
		})
	}
}

// TestDisasmSourceRendersAllOpcodes pins the disassembler contract the
// opcheck analyzer enforces structurally: every opcode family renders a
// distinct mnemonic. bcEdgeSrc compiles all of them.
func TestDisasmSourceRendersAllOpcodes(t *testing.T) {
	out, err := DisasmSource(bcEdgeSrc)
	if err != nil {
		t.Fatalf("DisasmSource: %v", err)
	}
	for _, want := range []string{
		"query form r(ff)",
		"arg.store", "arg.cmp", "arg.const",
		"arg.func", "arg.pop",
		"b.const", "b.reg",
		"a.reg", "a.const",
		"a.arith    +", "a.arith    -", "a.arith    *",
		"a.arith    /", "a.arith    mod", "a.arith    abs",
		"assign r", `builtin "<" compare`, `builtin "=" test`,
		"neg sf/2",
		"head:",
		"xr:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q\n%s", want, out)
		}
	}
}

// TestDisasmSourceErrors: parse failures and programs with no exported
// query forms report errors instead of empty output.
func TestDisasmSourceErrors(t *testing.T) {
	if _, err := DisasmSource("module m. export"); err == nil {
		t.Error("no error for unparsable source")
	}
	if _, err := DisasmSource("a(1)."); err == nil {
		t.Error("no error for source without exported query forms")
	}
}
