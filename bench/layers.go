package main

// Per-layer metrics: what the traced pass's spans say about each layer,
// and probes that time one layer's exported functions on the workload's
// own inputs. Layers are this repository's packages (README has the map
// from the paper's Fig. 1 boxes).

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"coral"
	"coral/internal/analysis"
	"coral/internal/analysis/card"
	"coral/internal/analysis/flow"
	"coral/internal/ast"
	"coral/internal/engine"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/rewrite"
	"coral/internal/term"
)

// form is a (module, export, adornment) the schedule calls.
type form struct {
	module, pred string
	arity        int
	adorn        string
}

// call is one module call sampled from the schedule: pred with the given
// positions bound to integer constants and the rest free.
type call struct {
	shape string
	pred  string
	arity int
	bound map[int]int
}

func (c call) key() ast.PredKey { return ast.PredKey{Name: c.pred, Arity: c.arity} }

func (c call) args() []term.Term {
	out := make([]term.Term, c.arity)
	for i := range out {
		if v, ok := c.bound[i]; ok {
			out[i] = term.Int(int64(v))
		} else {
			out[i] = term.NewVar(fmt.Sprintf("V%d", i))
		}
	}
	return out
}

// probeInput is what a workload hands the layer probes.
type probeInput struct {
	program  string        // facts and modules as consulted at set-up
	loadText string        // one /load batch; "" when the workload loads nothing
	forms    []form        // query forms the schedule uses
	calls    []call        // module calls sampled from the schedule
	tuples   [][]term.Term // the workload's own fact stream
	terms    []term.Term   // structured terms the workload builds
}

// usPer runs f n times and returns the median duration in microseconds.
func usPer(n int, f func()) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(d)
}

// nsEach times one loop over n items and returns nanoseconds per item.
func nsEach(n int, loop func()) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	loop()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// fromSpans derives the metrics that come from the traced pass. A span
// name the workload never records leaves its metric at 0: the workload
// does not use that call.
func (lm layerMetrics) fromSpans(tr *tracer) {
	med := func(scale float64, name string) float64 { return median(tr.durations(name)) * scale }
	lm["parser.parse_query_us"] = med(1e3, "parser.parse_query")
	lm["parser.parse_load_us"] = med(1e3, "parser.parse_load")
	lm["coral.session_query_us"] = med(1e3, "coral.session_query")
	lm["engine.view_query_us"] = med(1e3, "engine.view_query")
	lm["engine.first_answer_ms"] = med(1, "engine.first_answer")
	lm["engine.eval_ms"] = median(tr.byPrefix("engine.eval", false))
	for _, shape := range []string{"tc_linear", "p_sym", "mutual", "spath", "arith"} {
		lm["engine.eval_ms."+shape] = med(1, "engine.eval."+shape)
	}
	lm["serve.handler_query_us"] = med(1e3, "serve.handler_query")
	lm["serve.handler_load_us"] = med(1e3, "serve.handler_load")
	lm["serve.session_open_us"] = med(1e3, "serve.session_open")
	lm["serve.session_close_us"] = med(1e3, "serve.session_close")
	lm["storage.lookup_us"] = med(1e3, "storage.lookup")
	lm["storage.insert_us"] = med(1e3, "storage.insert")

	// Shares of the sampled operations' own time.
	whole := sum(tr.byPrefix("op:", true))
	lm["engine.eval_share"] = ratio(sum(tr.byPrefix("engine.eval", false)), whole)
	lm["storage.share"] = ratio(sum(tr.byPrefix("storage.", false)), whole)
	lm["parser.share"] = ratio(sum(tr.byPrefix("parser.", false)), whole)
	handler := sum(tr.durations("serve.handler_query"))
	lm["serve.self_share"] = ratio(handler-sum(tr.durations("coral.session_query")), handler)
	if handler > 0 {
		lm["serve.http_overhead_us"] = (median(tr.byPrefix("op:query", true)) - median(tr.durations("serve.handler_query"))) * 1e3
	} else {
		lm["serve.http_overhead_us"] = 0
	}

	// Counts taken at the engine.eval boundary, default parallelism.
	rounds, evals := tr.countSum("engine.eval", "parallel_rounds")
	lm["engine.parallel_rounds_per_op"] = ratio(rounds, float64(evals))
	for _, k := range []string{"page_reads", "page_writes", "evictions"} {
		total, n := tr.countSum("storage.", k)
		lm["storage."+k+"_per_op"] = ratio(total, float64(n))
	}
	hits, _ := tr.countSum("storage.", "hits")
	misses, _ := tr.countSum("storage.", "misses")
	lm["storage.pool_hit_ratio"] = ratio(hits, hits+misses)
}

// statCounts renders RunStats as span counts.
func statCounts(st engine.RunStats) map[string]int64 {
	return map[string]int64{
		"answers": int64(st.Answers), "derivations": int64(st.Derivations), "attempts": int64(st.Attempts),
		"iterations": int64(st.Iterations), "parallel_rounds": int64(st.ParallelRounds),
		"facts_stored": int64(st.FactsStored), "hash_builds": int64(st.HashJoinBuilds),
		"hash_probes": int64(st.HashJoinProbes), "bytecode_runs": int64(st.BytecodeRuns),
	}
}

// engineSystem loads a parsed unit into a fresh engine system the way
// coral.System.Consult does.
func engineSystem(u *ast.Unit, parallelism int) (*engine.System, error) {
	sys := engine.NewSystem()
	sys.Parallelism = parallelism
	for _, f := range u.Facts {
		rel, err := sys.BaseRelation(f.Pred, len(f.Args))
		if err != nil {
			return nil, err
		}
		rel.Insert(relation.NewFact(f.Args, nil))
	}
	for _, ix := range u.Indexes {
		// Argument-form indexes only (every key a distinct variable of the
		// pattern), which is all the workloads declare.
		rel, err := sys.BaseRelation(ix.Pred, len(ix.Pattern))
		if err != nil {
			return nil, err
		}
		var pos []int
		for _, k := range ix.KeyVars {
			for i, t := range ix.Pattern {
				if v, ok := t.(*term.Var); ok && v.Name == k {
					pos = append(pos, i)
				}
			}
		}
		if err := rel.MakeIndex(pos...); err != nil {
			return nil, err
		}
	}
	for _, m := range u.Modules {
		if err := sys.AddModule(m); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// probeLayers times parser, analysis, rewrite, engine, relation and term
// on the workload's inputs. Everything runs on private systems, after the
// traced pass, on one goroutine.
func (lm layerMetrics) probeLayers(in probeInput) error {
	// parser
	var u *ast.Unit
	var err error
	parseUS := usPer(3, func() { u, err = parser.Parse(in.program) })
	if err != nil {
		return err
	}
	lm["parser.parse_unit_mb_s"] = ratio(float64(len(in.program)), parseUS)
	if lm["parser.parse_load_us"] == 0 && in.loadText != "" {
		lm["parser.parse_load_us"] = usPer(5, func() { _, err = parser.Parse(in.loadText) })
	}

	// analysis: the modules only — the vet gate does not read facts.
	mods := &ast.Unit{Modules: u.Modules}
	lm["analysis.vet_ms"] = usPer(5, func() { analysis.AnalyzeUnit(mods, analysis.Options{AssumeDefined: true}) }) / 1e3
	lm["analysis.flow_ms"] = usPer(5, func() {
		for _, m := range u.Modules {
			flow.Analyze(m, flow.Options{NegFree: !m.Ann.OrderedSearch})
		}
	}) / 1e3
	lm["analysis.card_ms"] = usPer(5, func() {
		for _, m := range u.Modules {
			card.Analyze(m, card.Options{NegFree: !m.Ann.OrderedSearch})
		}
	}) / 1e3

	// rewrite and program build, per query form the schedule uses. Modules
	// under "@rewrite none" never reach Adorn or Magic: those stay 0.
	byName := map[string]*ast.Module{}
	for _, m := range u.Modules {
		byName[m.Name] = m
	}
	var adornUS, magicUS, buildUS []float64
	rulesOut := 0
	for _, f := range in.forms {
		m := byName[f.module]
		if m == nil {
			return fmt.Errorf("form names unknown module %q", f.module)
		}
		key := ast.PredKey{Name: f.pred, Arity: f.arity}
		buildUS = append(buildUS, usPer(5, func() { _, err = engine.BuildProgram(m, key, f.adorn) }))
		if err != nil {
			return err
		}
		if m.Ann.Rewriting == "none" {
			continue
		}
		opts := rewrite.AdornOptions{NegFree: !m.Ann.OrderedSearch, Reorder: m.Ann.Reorder}
		var ad *rewrite.Adorned
		adornUS = append(adornUS, usPer(5, func() { ad, err = rewrite.Adorn(m.Rules, key, f.adorn, opts) }))
		if err != nil {
			return err
		}
		var rw *rewrite.Rewritten
		magicUS = append(magicUS, usPer(5, func() {
			rw, err = rewrite.Magic(ad, rewrite.Options{Supplementary: true, DoneLiterals: m.Ann.OrderedSearch})
		}))
		if err != nil {
			return err
		}
		rulesOut += len(rw.Rules)
	}
	lm["rewrite.adorn_us"] = median(adornUS)
	lm["rewrite.magic_us"] = median(magicUS)
	lm["rewrite.rules_out"] = float64(rulesOut)
	lm["engine.build_program_us"] = median(buildUS)

	// engine: module installation, snapshots, and the sampled calls run
	// sequentially (exactly repeatable counts) and at default parallelism.
	seq, err := engineSystem(&ast.Unit{Facts: u.Facts, Indexes: u.Indexes}, 1)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, m := range u.Modules {
		if err := seq.AddModule(m); err != nil {
			return err
		}
	}
	lm["engine.add_module_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	lm["engine.snapshot_us"] = usPer(21, func() { seq.SnapshotBases() })
	par, err := engineSystem(u, 0)
	if err != nil {
		return err
	}
	var total engine.RunStats
	var seqMS, parMS float64
	for _, c := range in.calls {
		t0 := time.Now()
		st, err := seq.MeasureCall(c.key(), c.args())
		seqMS += float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := par.MeasureCall(c.key(), c.args()); err != nil {
			return err
		}
		parMS += float64(time.Since(t0).Nanoseconds()) / 1e6
		total.Answers += st.Answers
		total.Derivations += st.Derivations
		total.Attempts += st.Attempts
		total.Iterations += st.Iterations
		total.FactsStored += st.FactsStored
		total.HashJoinBuilds += st.HashJoinBuilds
		total.HashJoinProbes += st.HashJoinProbes
		total.BytecodeRuns += st.BytecodeRuns
	}
	n := float64(len(in.calls))
	lm["engine.attempts_per_op"] = ratio(float64(total.Attempts), n)
	lm["engine.derivations_per_op"] = ratio(float64(total.Derivations), n)
	lm["engine.iterations_per_op"] = ratio(float64(total.Iterations), n)
	lm["engine.facts_stored_per_op"] = ratio(float64(total.FactsStored), n)
	lm["engine.answers_per_op"] = ratio(float64(total.Answers), n)
	lm["engine.hash_builds_per_op"] = ratio(float64(total.HashJoinBuilds), n)
	lm["engine.hash_probes_per_op"] = ratio(float64(total.HashJoinProbes), n)
	lm["engine.bytecode_runs_per_op"] = ratio(float64(total.BytecodeRuns), n)
	lm["engine.derivations_per_attempt"] = ratio(float64(total.Derivations), float64(total.Attempts))
	lm["engine.stored_per_derivation"] = ratio(float64(total.FactsStored), float64(total.Derivations))
	lm["engine.ns_per_attempt"] = ratio(seqMS*1e6, float64(total.Attempts))
	lm["engine.par_speedup"] = ratio(seqMS, parMS)

	// coral: a whole consult of the program text.
	lm["coral.consult_ms"] = usPer(3, func() { _, err = coral.New().Consult(in.program) }) / 1e3
	if err != nil {
		return err
	}

	lm.probeRelation(in.tuples)
	lm.probeTerm(in.tuples, in.terms)
	return nil
}

// probeRelation times HashRelation on the workload's own fact stream.
func (lm layerMetrics) probeRelation(tuples [][]term.Term) {
	n := len(tuples)
	if n == 0 {
		return
	}
	arity := len(tuples[0])
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rel := relation.NewHashRelation("probe", arity)
	lm["relation.insert_ns"] = nsEach(n, func() {
		for _, t := range tuples {
			rel.Insert(relation.GroundFact(append([]term.Term(nil), t...)...))
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&m1)
	lm["relation.bytes_per_fact"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(rel.Len())
	lm["relation.dup_insert_ns"] = nsEach(n, func() {
		for _, t := range tuples {
			rel.Insert(relation.GroundFact(t...))
		}
	})
	lm["relation.contains_ns"] = nsEach(n, func() {
		for _, t := range tuples {
			rel.ContainsResolved(t, nil)
		}
	})
	lm["relation.scan_ns_per_fact"] = nsEach(rel.Len(), func() {
		it := rel.Scan()
		for {
			if _, ok := it.Next(); !ok {
				return
			}
		}
	})
	t0 := time.Now()
	_ = rel.MakeIndex(0) // position 0 exists: arity ≥ 1
	lm["relation.make_index_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	// First-column lookups through the index, live and through a snapshot
	// prefix; the pattern's free positions share one environment.
	pattern := make([]term.Term, arity)
	for i := 1; i < arity; i++ {
		pattern[i] = term.NewVar(fmt.Sprintf("V%d", i))
	}
	pattern[0] = term.Int(0)
	resolved, slots := term.ResolveArgs(pattern, nil)
	env := term.NewEnv(slots)
	lookups := func(src interface {
		Lookup([]term.Term, *term.Env) relation.Iterator
	}) float64 {
		return nsEach(n, func() {
			for _, t := range tuples {
				resolved[0] = t[0]
				it := src.Lookup(resolved, env)
				for {
					if _, ok := it.Next(); !ok {
						break
					}
				}
			}
		})
	}
	lm["relation.lookup_ns"] = lookups(rel)
	lm["relation.prefix_lookup_ns"] = lookups(rel.PrefixView())
}

// probeTerm times unification, matching, hashing and interning on the
// workload's tuples and the structured terms it builds.
func (lm layerMetrics) probeTerm(tuples [][]term.Term, terms []term.Term) {
	n := len(tuples)
	if n == 0 {
		return
	}
	arity := len(tuples[0])
	pattern := make([]term.Term, arity)
	for i := range pattern {
		pattern[i] = term.NewVar(fmt.Sprintf("V%d", i))
	}
	resolved, slots := term.ResolveArgs(pattern, nil)
	env := term.NewEnv(slots)
	var tr term.Trail
	lm["term.unify_args_ns"] = nsEach(n, func() {
		for _, t := range tuples {
			m := tr.Mark()
			term.UnifyArgs(resolved, env, t, term.EmptyEnv(), &tr)
			tr.Undo(m)
		}
	})
	lm["term.match_args_ns"] = nsEach(n, func() {
		for _, t := range tuples {
			m := tr.Mark()
			term.MatchArgs(resolved, env, t, term.EmptyEnv(), &tr)
			tr.Undo(m)
		}
	})
	lm["term.hash_args_ns"] = nsEach(n, func() {
		for _, t := range tuples {
			term.HashArgs(t)
		}
	})
	// Interning needs functor terms: the workload's own (path lists), or
	// each tuple as t(...) when it builds none — rebuilt, so that they carry
	// no identifiers yet, and interned into an emptied table, so that the
	// distinct count does not depend on what this process interned before.
	// Nothing evaluates after the probes, so no identifier from before the
	// reset is ever compared with one from after it.
	fresh := make([]term.Term, 0, max(n, len(terms)))
	for _, t := range terms {
		fresh = append(fresh, copyTerm(t))
	}
	if len(terms) == 0 {
		for _, t := range tuples {
			fresh = append(fresh, term.NewFunctor("t", t...))
		}
	}
	terms = fresh
	term.ResetInterner()
	before := term.InternStats()
	lm["term.intern_ns"] = nsEach(len(terms), func() {
		for _, t := range terms {
			term.Intern(t)
		}
	})
	lm["term.interned_distinct"] = float64(term.InternStats() - before)
}

// copyTerm rebuilds a ground term without its hash-consing identifiers.
func copyTerm(t term.Term) term.Term {
	f, ok := t.(*term.Functor)
	if !ok {
		return t
	}
	args := make([]term.Term, len(f.Args))
	for i, a := range f.Args {
		args[i] = copyTerm(a)
	}
	return term.NewFunctor(f.Sym, args...)
}

// intTuples converts integer rows to ground argument lists, at most max.
func intTuples(rows [][]int, max int) [][]term.Term {
	if len(rows) > max {
		rows = rows[:max]
	}
	out := make([][]term.Term, len(rows))
	for i, r := range rows {
		t := make([]term.Term, len(r))
		for j, v := range r {
			t[j] = term.Int(int64(v))
		}
		out[i] = t
	}
	return out
}

// factText renders integer rows as "pred(a, b).\n" lines.
func factText(pred string, rows [][]int) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(pred)
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteString(").\n")
	}
	return b.String()
}
