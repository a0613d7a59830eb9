package engine

import (
	"fmt"
	"strings"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// The Explanation tool: CORAL shipped with an explanation facility (built
// by Roth and Arora, per the paper's acknowledgements) that shows how a
// fact was derived. This reproduction records, for each derived fact, the
// first rule instantiation that produced it, and renders proof trees on
// demand. Tracing covers materialized evaluation (where facts persist to
// point at); enable it per call through ModuleDef.ExplainCall, which sets
// callCfg.trace.

// TraceLog records one justification per derived fact.
type TraceLog struct {
	just map[string]*Justification
}

// Justification is one recorded rule instantiation.
type Justification struct {
	Pred     ast.PredKey
	Fact     Fact
	Rule     string
	Premises []Premise
}

// Premise is one satisfied body item of the instantiation.
type Premise struct {
	Pred    ast.PredKey
	Fact    Fact
	Neg     bool
	Builtin string // rendered builtin, e.g. "C1 = 3"
}

func newTraceLog() *TraceLog {
	return &TraceLog{just: make(map[string]*Justification)}
}

// factKey canonicalizes a fact for lookup: variables print by index so
// variant facts collide as intended.
func factKey(pred ast.PredKey, f Fact) string {
	var b strings.Builder
	b.WriteString(pred.String())
	for _, a := range f.Args {
		b.WriteByte('|')
		writeCanonical(&b, a)
	}
	return b.String()
}

func writeCanonical(b *strings.Builder, t term.Term) {
	switch x := t.(type) {
	case *term.Var:
		fmt.Fprintf(b, "_%d", x.Index)
	case *term.Functor:
		b.WriteString(x.Sym)
		if len(x.Args) > 0 {
			b.WriteByte('(')
			for i, a := range x.Args {
				if i > 0 {
					b.WriteByte(',')
				}
				writeCanonical(b, a)
			}
			b.WriteByte(')')
		}
	default:
		b.WriteString(t.String())
	}
}

// record stores the first justification for a fact.
func (tl *TraceLog) record(j *Justification) {
	key := factKey(j.Pred, j.Fact)
	if _, seen := tl.just[key]; seen {
		return
	}
	tl.just[key] = j
}

// lookup finds a fact's justification.
func (tl *TraceLog) lookup(pred ast.PredKey, f Fact) *Justification {
	return tl.just[factKey(pred, f)]
}

// capture builds the justification for a completed rule instantiation; the
// evaluator calls it with the rule's live environment.
func (ev *evaluator) capture(c *Compiled, head Fact, env *term.Env) {
	j := &Justification{Pred: c.HeadPred, Fact: head, Rule: c.String()}
	for i := range c.Body {
		it := &c.Body[i]
		switch it.Kind {
		case ItemBuiltin:
			args, _ := term.ResolveArgs(it.Args, env)
			j.Premises = append(j.Premises, Premise{
				Builtin: fmt.Sprintf("%s %s %s", args[0], it.Op, args[1]),
			})
		case ItemNegRel:
			j.Premises = append(j.Premises, Premise{
				Pred: it.Pred, Fact: relation.NewFact(it.Args, env), Neg: true,
			})
		default:
			j.Premises = append(j.Premises, Premise{
				Pred: it.Pred, Fact: relation.NewFact(it.Args, env),
			})
		}
	}
	ev.trace.record(j)
}

// Render writes a proof tree for the fact, following justifications
// through derived predicates; base facts and unrecorded premises are
// leaves. Repeated subproofs are elided with a back-reference, keeping the
// output finite on shared or cyclic derivations.
func (tl *TraceLog) Render(pred ast.PredKey, f Fact) string {
	var b strings.Builder
	seen := make(map[string]bool)
	tl.render(&b, pred, f, "", seen)
	return b.String()
}

func (tl *TraceLog) render(b *strings.Builder, pred ast.PredKey, f Fact, indent string, seen map[string]bool) {
	fmt.Fprintf(b, "%s%s%s", indent, pred.Name, f)
	j := tl.lookup(pred, f)
	if j == nil {
		b.WriteString("   [base fact]\n")
		return
	}
	key := factKey(pred, f)
	if seen[key] {
		b.WriteString("   [shown above]\n")
		return
	}
	seen[key] = true
	fmt.Fprintf(b, "\n%s  by rule: %s\n", indent, j.Rule)
	for _, p := range j.Premises {
		switch {
		case p.Builtin != "":
			fmt.Fprintf(b, "%s  - %s   [builtin]\n", indent, p.Builtin)
		case p.Neg:
			fmt.Fprintf(b, "%s  - not %s%s   [no derivation exists]\n", indent, p.Pred.Name, p.Fact)
		default:
			tl.render(b, p.Pred, p.Fact, indent+"  - ", seen)
		}
	}
}

// ExplainCall evaluates pred(args) with derivation tracing under the
// System's writer view — its context and budget — and renders a proof for
// every answer. The module must be materialized.
func (def *ModuleDef) ExplainCall(pred ast.PredKey, args []term.Term) (out string, err error) {
	if def.pipe != nil {
		return "", fmt.Errorf("engine: explanation requires materialized evaluation (module %s is pipelined)", def.Src.Name)
	}
	cfg := &callCfg{v: def.sys.writerView(), trace: newTraceLog()}
	it, err := def.callWith(cfg, pred, args, nil)
	if err != nil {
		return "", err
	}
	// Explain the completed evaluation's answers: run to the fixpoint
	// first, so an aggregate selection has settled every answer it keeps.
	scan := it.(*answerScan)
	if scan.me.run(); scan.me.err != nil {
		return "", scan.me.err
	}
	defer recoverEval(&err)
	var b strings.Builder
	count := 0
	// lint:allow scanloop — proof rendering over the completed evaluation's
	// materialized answers; bounded by the budget that admitted them.
	for {
		f, ok := scan.Next()
		if !ok {
			break
		}
		count++
		b.WriteString(cfg.trace.Render(scan.me.prog.QueryPred, f))
		b.WriteByte('\n')
	}
	if count == 0 {
		return "no answers (nothing to explain)\n", nil
	}
	return b.String(), nil
}
