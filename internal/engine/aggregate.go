package engine

import (
	"sort"

	"coral/internal/relation"
	"coral/internal/term"
)

// Head aggregation and set-grouping (paper §1, §5.5; Figure 3's
// s_p_length(X, Y, min(C)) :- p(X, Y, P, C)). An aggregate rule is
// evaluated to completion over its (complete) body; derivations are grouped
// by the non-aggregated head arguments; and one fact per group is emitted
// with each aggregated position replaced by the aggregate of its collected
// values. Set-grouping <X> collects the distinct values into a sorted list
// (our stand-in for CORAL's set terms).
//
// Aggregation follows set semantics: duplicate (group, values) derivations
// are eliminated before aggregating, so count/sum range over distinct value
// combinations per group.

// evalAggRule runs one aggregate rule to completion and inserts the grouped
// results. The caller guarantees the body's derived predicates are complete
// (stratified order, or Ordered Search done guards inside the body).
func (me *matEval) evalAggRule(c *Compiled) (err error) {
	// The grouped-result inserts below run outside evalRule's recover;
	// catch budget throws from me.insert here so they return as errors.
	defer recoverEval(&err)
	var groupPos []int
	aggOf := make(map[int]*CAgg, len(c.Aggs))
	for i := range c.Aggs {
		aggOf[c.Aggs[i].Pos] = &c.Aggs[i]
	}
	for i := range c.HeadArgs {
		if _, isAgg := aggOf[i]; !isAgg {
			groupPos = append(groupPos, i)
		}
	}

	// Synthetic head: group arguments followed by the aggregated source
	// expressions; the relation's duplicate check gives set semantics.
	synthArgs := make([]term.Term, 0, len(groupPos)+len(c.Aggs))
	for _, p := range groupPos {
		synthArgs = append(synthArgs, c.HeadArgs[p])
	}
	for i := range c.Aggs {
		synthArgs = append(synthArgs, c.Aggs[i].Arg)
	}
	synth := &Compiled{
		HeadPred: c.HeadPred, // name only used for diagnostics
		HeadArgs: synthArgs,
		Body:     c.Body,
		NVars:    c.NVars,
		Line:     c.Line,
		SeedPos:  c.SeedPos,
	}
	tuples := relation.NewHashRelation("$agg", len(synthArgs))
	err = me.ev.evalRule(synth, &fullRanges, func(f Fact) bool {
		tuples.Insert(f)
		return true
	})
	if err != nil {
		return err
	}

	// Group the distinct tuples.
	type group struct {
		key    []term.Term
		keyN   int
		states []*aggAcc
	}
	groups := make(map[uint64][]*group)
	var order []*group
	it := tuples.Scan()
	// lint:allow scanloop — drains an already-materialized distinct-tuple
	// relation, bounded by the fact budget that admitted it.
	for {
		f, ok := it.Next()
		if !ok {
			break
		}
		keyVals := f.Args[:len(groupPos)]
		h := term.HashArgs(keyVals)
		var g *group
		for _, cand := range groups[h] {
			if cand.keyN == f.NVars && term.EqualArgs(cand.key, keyVals) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: keyVals, keyN: f.NVars, states: make([]*aggAcc, len(c.Aggs))}
			for i := range g.states {
				g.states[i] = &aggAcc{}
			}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for i := range c.Aggs {
			if err := g.states[i].add(c.Aggs[i].Op, f.Args[len(groupPos)+i]); err != nil {
				return err
			}
		}
	}

	// Emit one fact per group.
	for _, g := range order {
		args := make([]term.Term, len(c.HeadArgs))
		ki := 0
		for i := range c.HeadArgs {
			if ag, isAgg := aggOf[i]; isAgg {
				v, err := g.states[indexOfAgg(c.Aggs, ag)].result(ag.Op)
				if err != nil {
					return err
				}
				args[i] = v
			} else {
				args[i] = g.key[ki]
				ki++
			}
		}
		out := relation.NewFact(args, nil)
		if me.ev.trace != nil {
			me.ev.trace.record(&Justification{
				Pred: c.HeadPred,
				Fact: out,
				Rule: c.String() + "  [aggregation over the rule body's complete extent]",
			})
		}
		me.insert(c.HeadPred, out)
	}
	return nil
}

func indexOfAgg(aggs []CAgg, ag *CAgg) int {
	for i := range aggs {
		if &aggs[i] == ag {
			return i
		}
	}
	return 0
}

// aggAcc accumulates one aggregate over a group.
type aggAcc struct {
	min, max term.Term
	sum      term.Term
	count    int64
	set      []term.Term
	anyVal   term.Term
}

func (a *aggAcc) add(op string, v term.Term) (err error) {
	defer recoverEval(&err)
	switch op {
	case "min":
		if a.min == nil || aggCompare(v, a.min) < 0 {
			a.min = v
		}
	case "max":
		if a.max == nil || aggCompare(v, a.max) > 0 {
			a.max = v
		}
	case "sum", "avg":
		a.count++
		if a.sum == nil {
			a.sum = v
		} else {
			a.sum = applyArith("+", a.sum, v)
		}
	case "count":
		a.count++
	case "any":
		if a.anyVal == nil {
			a.anyVal = v
		}
	case "set":
		a.set = append(a.set, v)
	default:
		throwf("engine: unknown aggregate operation %s", op)
	}
	return nil
}

func (a *aggAcc) result(op string) (out term.Term, err error) {
	defer recoverEval(&err)
	switch op {
	case "min":
		return a.min, nil
	case "max":
		return a.max, nil
	case "sum":
		return a.sum, nil
	case "avg":
		return applyArith("/", toFloatTerm(a.sum), term.Float(float64(a.count))), nil
	case "count":
		return term.Int(a.count), nil
	case "any":
		return a.anyVal, nil
	case "set":
		sorted := append([]term.Term(nil), a.set...)
		sort.Slice(sorted, func(i, j int) bool { return term.Compare(sorted[i], sorted[j]) < 0 })
		// Distinct values only.
		out := sorted[:0]
		for i, v := range sorted {
			if i == 0 || term.Compare(v, sorted[i-1]) != 0 {
				out = append(out, v)
			}
		}
		return term.MakeList(out...), nil
	}
	throwf("engine: unknown aggregate operation %s", op)
	return nil, nil
}

func toFloatTerm(t term.Term) term.Term {
	if t == nil {
		return term.Float(0)
	}
	return term.Float(toFloat(t))
}

// aggCompare orders aggregate values: numerically when both sides are
// numeric, by the term order otherwise.
func aggCompare(a, b term.Term) int {
	if term.IsNumeric(a) && term.IsNumeric(b) {
		return term.NumCompare(a, b)
	}
	return term.Compare(a, b)
}
