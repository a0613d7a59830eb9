package engine

import (
	"fmt"
	"sort"
	"strings"

	"coral/internal/analysis/flow"
	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/rewrite"
)

// Program is the compiled, optimized form of one (module, query form) pair
// — the unit the query evaluation system interprets (paper §2, §5.1). It
// contains the rewritten rules grouped into strata (SCCs in bottom-up
// order), the magic seed description, aggregate selections, and index
// requests.
type Program struct {
	ModName string
	Ann     ast.Annotations
	// QueryPred is the predicate whose relation holds the query's answers
	// (the adorned query predicate under magic rewriting).
	QueryPred ast.PredKey
	// OrigQuery is the predicate the caller asked for.
	OrigQuery ast.PredKey
	// Adorn is the query form this program was optimized for.
	Adorn string
	// MagicPred is the magic seed predicate; zero when Rewriting is none.
	MagicPred ast.PredKey
	// SeedPositions are the original argument positions that form the seed.
	SeedPositions []int
	// KeepPositions lists the original query argument positions retained
	// after existential rewriting (nil: all of them). Answers have the
	// projected arity; dropped positions are existential (paper §4.1).
	KeepPositions []int
	// Strata lists rule groups in bottom-up evaluation order.
	Strata []*Stratum
	// Derived is the set of predicates defined by the (rewritten) program.
	Derived map[ast.PredKey]bool
	// LocalPreds is Derived plus done predicates: everything stored in the
	// evaluation's local store rather than resolved externally.
	LocalPreds map[ast.PredKey]bool
	// MagicPreds are generated magic predicates (always duplicate-checked).
	MagicPreds map[ast.PredKey]bool
	// DonePreds maps guarded predicates to their done predicates (Ordered
	// Search mode).
	DonePreds map[ast.PredKey]ast.PredKey
	// AnswerOf maps each magic predicate to the adorned predicate whose
	// subgoals it holds (Ordered Search bookkeeping).
	AnswerOf map[ast.PredKey]ast.PredKey
	// SaveModule retains evaluation state across calls (paper §5.4.2).
	SaveModule bool
	// Eager computes the whole fixpoint before the first answer is
	// returned; the default surfaces answers per iteration (paper §5.4.3).
	Eager bool
	// OrigName maps each derived predicate to the predicate it was derived
	// from by adornment ("" for generated magic/sup predicates).
	OrigName map[ast.PredKey]string
	// AggSels maps original predicate names to compiled aggregate
	// selections; they attach to every adorned variant.
	AggSels map[string][]*relation.AggSel
	// Multiset lists original predicate names with multiset semantics.
	Multiset map[string]bool
	// IndexReqs maps derived predicates to argument-form index requests
	// computed by the optimizer from rule binding patterns (paper §5.3).
	IndexReqs map[ast.PredKey][][]int
	// IndexAnns are explicit @make_index annotations.
	IndexAnns []ast.IndexAnn
	// OrderedSearch, PSN, Naive select the fixpoint variant.
	OrderedSearch bool
	PSN           bool
	Naive         bool
	// RewrittenText is the rewritten program as text — the paper stores it
	// in a file as a debugging aid (§2).
	RewrittenText string
	// RewrittenRules is the rewritten rule set itself, retained for the
	// static cardinality analysis (cardseed.go): estimates computed over
	// these rules price the program that actually runs, magic and
	// supplementary predicates included.
	RewrittenRules []*ast.Rule
	// plans memoises planned rule versions with their bytecode (plan.go): the
	// one part of a Program that grows after it is built, behind its own lock.
	plans planMemo
}

// Stratum is one SCC of the rewritten program together with its rules.
type Stratum struct {
	Preds     []ast.PredKey
	Recursive bool
	// Table is the stratum's predicate table: Preds, then every other
	// predicate a recursive body item reads (seed and done predicates of
	// single-fixpoint programs). CItem.Slot and Compiled.HeadSlot index it, and
	// an evaluation keeps its relations and semi-naive marks in slices laid
	// out the same way (roundSched).
	Table []ast.PredKey
	// ExitRules have no recursive body literal and run once.
	ExitRules []*Compiled
	// RecRules are iterated semi-naively.
	RecRules []*Compiled
	// AggRules aggregate and run once when the stratum starts (their
	// bodies lie in lower strata under stratified evaluation).
	AggRules []*Compiled
}

// BuildProgram runs the optimizer for one query form: rewriting per the
// module's annotations, compilation to internal form, stratification, and
// index planning.
func BuildProgram(mod *ast.Module, query ast.PredKey, adorn string) (*Program, error) {
	return buildProgram(mod, query, adorn, nil, true)
}

// buildProgram is the optimizer behind the exported entry points. flowOpt
// applies the flow-analysis-driven optimizations — rule pruning, skip-magic,
// planner seed positions; every installed program has them, and the
// reference evaluator the tests compare against is built without.
func buildProgram(mod *ast.Module, query ast.PredKey, adorn string, mask []bool, flowOpt bool) (*Program, error) {
	ann := mod.Ann
	rewriting := ann.Rewriting
	if rewriting == "" {
		rewriting = "supmagic"
	}
	p := &Program{
		ModName:       mod.Name,
		Ann:           ann,
		OrigQuery:     query,
		Adorn:         adorn,
		Derived:       make(map[ast.PredKey]bool),
		MagicPreds:    make(map[ast.PredKey]bool),
		DonePreds:     make(map[ast.PredKey]ast.PredKey),
		OrigName:      make(map[ast.PredKey]string),
		AnswerOf:      make(map[ast.PredKey]ast.PredKey),
		AggSels:       make(map[string][]*relation.AggSel),
		Multiset:      make(map[string]bool),
		IndexReqs:     make(map[ast.PredKey][][]int),
		IndexAnns:     append([]ast.IndexAnn(nil), ann.Indexes...),
		OrderedSearch: ann.OrderedSearch,
		SaveModule:    ann.SaveModule,
		Eager:         ann.Eager,
		PSN:           ann.FixpointStrategy == "psn",
		Naive:         ann.FixpointStrategy == "naive",
	}
	if ann.SaveModule && ann.OrderedSearch {
		return nil, fmt.Errorf("engine: module %s: @save_module cannot be combined with @ordered_search", mod.Name)
	}
	for _, m := range ann.Multiset {
		p.Multiset[m] = true
	}
	if err := compileAggSels(mod, p); err != nil {
		return nil, err
	}

	var rules []*ast.Rule
	switch rewriting {
	case "none":
		// Reach rejects what the magic case rejects (a query the module does
		// not define, a wrong adornment length); its reachable set prunes
		// rules before fixpoint setup when flow optimization is on.
		rb, err := flow.Reach(mod.Rules, query, adorn,
			rewrite.ReachOpts(rewrite.AdornOptions{NegFree: !ann.OrderedSearch}))
		if err != nil {
			return nil, err
		}
		rules = mod.Rules
		if flowOpt {
			rules = pruneRules(mod.Rules, rb.Preds())
		}
		if ann.Reorder {
			rules = rewrite.ReorderRules(rules)
		}
		p.QueryPred = query
		for _, r := range mod.Rules {
			p.OrigName[r.Head.Key()] = r.Head.Key().Name
		}
	case "magic", "supmagic", "factoring":
		rb, err := flow.Reach(mod.Rules, query, adorn,
			rewrite.ReachOpts(rewrite.AdornOptions{NegFree: !ann.OrderedSearch, Reorder: ann.Reorder}))
		if err != nil {
			return nil, err
		}
		if flowOpt && rewriting != "factoring" && !ann.OrderedSearch && !ann.SaveModule &&
			rb.AllFreeContexts() {
			// Every reachable context is all-free, so magic rewriting would
			// only compute full extents with seed bookkeeping on top.
			// Evaluate the pruned original rules directly instead (the
			// existential mask is ignored here: projection is an
			// optimization, and an all-free program is the cheap case).
			rules = pruneRules(mod.Rules, rb.Preds())
			if ann.Reorder {
				rules = rewrite.ReorderRules(rules)
			}
			p.QueryPred = query
			for _, r := range mod.Rules {
				p.OrigName[r.Head.Key()] = r.Head.Key().Name
			}
			break
		}
		adorned := rewrite.AdornFromReach(rb)
		if mask != nil && !ann.NoExistential && rewriting != "factoring" {
			projected := rewrite.Exists(adorned, mask)
			if projected != adorned {
				adorned = projected
				p.KeepPositions = rewrite.QueryKeepPositions(mask)
			}
		}
		if rewriting == "factoring" {
			if fr, ok := rewrite.Factor(adorned); ok {
				rules = fr.Rules
				p.QueryPred = ast.PredKey{Name: fr.QueryName, Arity: query.Arity}
				p.MagicPred = ast.PredKey{Name: fr.MagicName, Arity: len(fr.SeedPositions)}
				p.SeedPositions = fr.SeedPositions
				for name, info := range fr.Preds {
					p.OrigName[ast.PredKey{Name: name, Arity: info.Orig.Arity}] = info.Orig.Name
				}
				for name := range fr.MagicPreds {
					p.MagicPreds[ast.PredKey{Name: name, Arity: arityOf(rules, name)}] = true
				}
				break
			}
			// The program is not linear in the required way; fall back to
			// supplementary magic, CORAL's default.
			rewriting = "supmagic"
		}
		// Ordered Search uses plain Magic Templates: every rewritten rule
		// then carries its calling subgoal's magic fact as the first body
		// literal, which is what lets the context attribute derived
		// subgoals to their callers and sequence done facts correctly
		// (§5.4.1 requires "a version of Magic"; supplementary predicates
		// would project the caller away).
		rw, err := rewrite.Magic(adorned, rewrite.Options{
			Supplementary: rewriting == "supmagic" && !ann.OrderedSearch,
			DoneLiterals:  ann.OrderedSearch,
		})
		if err != nil {
			return nil, err
		}
		rules = rw.Rules
		p.QueryPred = ast.PredKey{Name: rw.QueryName, Arity: len(rw.Preds[rw.QueryName].Adorn)}
		p.MagicPred = ast.PredKey{Name: rw.MagicName, Arity: len(rw.SeedPositions)}
		p.SeedPositions = rw.SeedPositions
		if p.KeepPositions != nil {
			// Seed positions index the projected query arguments; map them
			// back to the caller's original argument positions.
			mapped := make([]int, len(p.SeedPositions))
			for i, pos := range p.SeedPositions {
				mapped[i] = p.KeepPositions[pos]
			}
			p.SeedPositions = mapped
		}
		for name, info := range rw.Preds {
			key := ast.PredKey{Name: name, Arity: info.Orig.Arity}
			p.OrigName[key] = info.Orig.Name
			nb := strings.Count(info.Adorn, "b")
			p.AnswerOf[ast.PredKey{Name: rewrite.MagicPredName(name), Arity: nb}] = key
		}
		for name := range rw.MagicPreds {
			p.MagicPreds[ast.PredKey{Name: name, Arity: arityOf(rules, name)}] = true
		}
		for guarded, done := range rw.DonePreds {
			gk := ast.PredKey{Name: guarded, Arity: arityOf(rules, guarded)}
			dk := ast.PredKey{Name: done, Arity: arityOf(rules, done)}
			p.DonePreds[gk] = dk
		}
	default:
		return nil, fmt.Errorf("engine: unknown rewriting %q", rewriting)
	}

	for _, r := range rules {
		p.Derived[r.Head.Key()] = true
	}
	// Done predicates and the magic seed predicate have no rules (the
	// engine asserts their facts) but live in the evaluation's local store
	// and must participate in semi-naive deltas: gated rules re-fire when
	// a subgoal completes, and seed-reading rules re-fire when the context
	// (or a later save-module call) makes a new seed available.
	p.LocalPreds = make(map[ast.PredKey]bool, len(p.Derived)+len(p.DonePreds)+len(p.MagicPreds))
	for k := range p.Derived {
		p.LocalPreds[k] = true
	}
	for _, dk := range p.DonePreds {
		p.LocalPreds[dk] = true
	}
	for k := range p.MagicPreds {
		p.LocalPreds[k] = true
	}
	// Apply existential rewriting by default in conjunction with selection
	// pushing (paper §4.1) — implemented as a post-pass in rewrite.Exists
	// when the query projects positions away; the caller (module manager)
	// decides per query, so here we only compile.

	graph := rewrite.BuildDepGraph(rules)
	if !p.OrderedSearch {
		if err := graph.CheckStratified(); err != nil {
			return nil, err
		}
	}

	// Compile rules and assign them to strata. Ordered Search and
	// save-module evaluations iterate the whole rule set as one fixpoint
	// with delta versions for every derived body literal: for Ordered
	// Search because the context interleaves subgoals freely; for
	// save-module because per-rule marks must persist across calls so no
	// derivation is ever repeated (paper §5.4.2).
	singleFixpoint := p.OrderedSearch || p.SaveModule
	recursive := func(head ast.PredKey) func(ast.PredKey) bool {
		if singleFixpoint {
			return func(k ast.PredKey) bool { return p.LocalPreds[k] }
		}
		return func(k ast.PredKey) bool { return graph.SameSCC(head, k) }
	}

	if singleFixpoint {
		st := &Stratum{Recursive: true}
		seen := map[ast.PredKey]bool{}
		for _, r := range rules {
			c, err := CompileRule(r, recursive(r.Head.Key()))
			if err != nil {
				return nil, err
			}
			if !seen[c.HeadPred] {
				seen[c.HeadPred] = true
				st.Preds = append(st.Preds, c.HeadPred)
			}
			switch {
			case len(c.Aggs) > 0:
				st.AggRules = append(st.AggRules, c)
			case len(c.RecPositions) > 0:
				st.RecRules = append(st.RecRules, c)
			default:
				st.ExitRules = append(st.ExitRules, c)
			}
		}
		p.Strata = []*Stratum{st}
	} else {
		byScc := make(map[int]*Stratum)
		for _, r := range rules {
			c, err := CompileRule(r, recursive(r.Head.Key()))
			if err != nil {
				return nil, err
			}
			si := graph.Stratum(c.HeadPred)
			st, ok := byScc[si]
			if !ok {
				st = &Stratum{
					Preds:     graph.SCCs[si].Preds,
					Recursive: graph.SCCs[si].Recursive,
				}
				byScc[si] = st
			}
			switch {
			case len(c.Aggs) > 0:
				st.AggRules = append(st.AggRules, c)
			case len(c.RecPositions) > 0:
				st.RecRules = append(st.RecRules, c)
			default:
				st.ExitRules = append(st.ExitRules, c)
			}
		}
		idxs := make([]int, 0, len(byScc))
		for i := range byScc {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			p.Strata = append(p.Strata, byScc[i])
		}
	}

	// Aggregation inside a recursive stratum cannot be evaluated by
	// stratified iteration.
	if !p.OrderedSearch && !p.SaveModule {
		for _, st := range p.Strata {
			if len(st.AggRules) > 0 && (len(st.RecRules) > 0) {
				return nil, fmt.Errorf("engine: aggregation is mutually recursive with other rules in module %s; use @ordered_search", mod.Name)
			}
		}
	}
	if p.SaveModule {
		// Save-module evaluation replays rules incrementally across calls;
		// negation over derived predicates and aggregation would observe
		// incomplete extents mid-stream.
		for _, st := range p.Strata {
			if len(st.AggRules) > 0 {
				return nil, fmt.Errorf("engine: module %s: @save_module does not support aggregation", mod.Name)
			}
			for _, group := range [][]*Compiled{st.ExitRules, st.RecRules} {
				for _, c := range group {
					for i := range c.Body {
						if c.Body[i].Kind == ItemNegRel && p.Derived[c.Body[i].Pred] {
							return nil, fmt.Errorf("engine: module %s: @save_module does not support negation over derived predicates", mod.Name)
						}
					}
				}
			}
		}
	}

	// Side-effecting update predicates need pipelining's execution-order
	// guarantee (paper §5.2); under materialization the application order
	// and count of rule bodies is an implementation detail.
	for _, st := range p.Strata {
		for _, group := range [][]*Compiled{st.ExitRules, st.RecRules, st.AggRules} {
			for _, c := range group {
				for i := range c.Body {
					if c.Body[i].Kind != ItemBuiltin && isUpdate(c.Body[i].Pred) {
						return nil, fmt.Errorf("engine: module %s uses %s, which requires @pipelining (§5.2)", mod.Name, c.Body[i].Pred)
					}
				}
			}
		}
	}

	// Seed positions for the join planner: the magic literal of a rewritten
	// rule carries the query's inferred call bindings, so full-extent rule
	// versions (delta < 0) seed their schedule from it instead of a blind
	// greedy pick (plan.go).
	if flowOpt && len(p.MagicPreds) > 0 {
		for _, st := range p.Strata {
			for _, group := range [][]*Compiled{st.ExitRules, st.RecRules, st.AggRules} {
				for _, c := range group {
					for i := range c.Body {
						if c.Body[i].Kind == ItemRel && p.MagicPreds[c.Body[i].Pred] {
							c.SeedPos = i
							break
						}
					}
				}
			}
		}
	}

	for _, st := range p.Strata {
		st.finish()
	}
	p.planIndexes()
	p.RewrittenText = renderRules(mod.Name, rules)
	p.RewrittenRules = rules
	return p, nil
}

// finish lays out the stratum's predicate table and points every rule and
// recursive item at its slot.
func (st *Stratum) finish() {
	st.Table = append([]ast.PredKey(nil), st.Preds...)
	slot := func(k ast.PredKey) int {
		for i, p := range st.Table {
			if p == k {
				return i
			}
		}
		st.Table = append(st.Table, k)
		return len(st.Table) - 1
	}
	for _, group := range [][]*Compiled{st.ExitRules, st.RecRules, st.AggRules} {
		for _, c := range group {
			c.HeadSlot = slot(c.HeadPred)
			for i := range c.Body {
				if c.Body[i].Recursive {
					c.Body[i].Slot = slot(c.Body[i].Pred)
				}
			}
		}
	}
}

// pruneRules drops rules whose head predicate is unreachable from the query
// form. Predicate-level reachability is adornment-independent, so the same
// rule bodies survive for every binding pattern.
func pruneRules(rules []*ast.Rule, reach map[ast.PredKey]bool) []*ast.Rule {
	out := make([]*ast.Rule, 0, len(rules))
	for _, r := range rules {
		if reach[r.Head.Key()] {
			out = append(out, r)
		}
	}
	return out
}

// arityOf finds the arity of a predicate name in the rule set (for magic
// and done-pred bookkeeping, where only the name is known).
func arityOf(rules []*ast.Rule, name string) int {
	for _, r := range rules {
		if r.Head.Pred == name {
			return len(r.Head.Args)
		}
		for i := range r.Body {
			if r.Body[i].Pred == name {
				return len(r.Body[i].Args)
			}
		}
	}
	return 0
}

// compileAggSels turns @aggregate_selection annotations into positional
// specs (positions resolved against the annotation's literal).
func compileAggSels(mod *ast.Module, p *Program) error {
	for _, s := range mod.Ann.AggSels {
		posOf := func(v string) int {
			for i, hv := range s.HeadVars {
				if hv == v {
					return i
				}
			}
			return -1
		}
		spec := &relation.AggSel{}
		switch s.Op {
		case "min":
			spec.Op = relation.AggMin
		case "max":
			spec.Op = relation.AggMax
		case "any":
			spec.Op = relation.AggAny
		default:
			return fmt.Errorf("engine: unknown aggregate selection op %q", s.Op)
		}
		for _, g := range s.GroupVars {
			i := posOf(g)
			if i < 0 {
				return fmt.Errorf("engine: aggregate selection group variable %s not in %s(%s)", g, s.Pred, strings.Join(s.HeadVars, ","))
			}
			spec.GroupPos = append(spec.GroupPos, i)
		}
		vp := posOf(s.ValueVar)
		if vp < 0 {
			return fmt.Errorf("engine: aggregate selection value variable %s not in %s(%s)", s.ValueVar, s.Pred, strings.Join(s.HeadVars, ","))
		}
		spec.ValuePos = vp
		p.AggSels[s.Pred] = append(p.AggSels[s.Pred], spec)
	}
	return nil
}

// planIndexes derives argument-form index requests from the bound argument
// positions of each body literal (the optimizer's automatic index
// annotations, paper §5.3).
func (p *Program) planIndexes() {
	if p.Ann.NoIndexing {
		return
	}
	for _, st := range p.Strata {
		for _, group := range [][]*Compiled{st.ExitRules, st.RecRules, st.AggRules} {
			for _, c := range group {
				for i := range c.Body {
					it := &c.Body[i]
					if it.Kind == ItemBuiltin {
						continue
					}
					addIndexReq(p.IndexReqs, it.Pred, it.BoundPos)
				}
			}
		}
	}
}

// addIndexReq adds an index request on pos to reqs unless it is empty or
// already there.
func addIndexReq(reqs map[ast.PredKey][][]int, pred ast.PredKey, pos []int) {
	if len(pos) == 0 {
		return
	}
	for _, existing := range reqs[pred] {
		if samePos(existing, pos) {
			return
		}
	}
	reqs[pred] = append(reqs[pred], pos)
}

func samePos(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// configureRelation applies multiset semantics, aggregate selections, and
// planned indexes to a freshly created local relation.
func (p *Program) configureRelation(key ast.PredKey, rel *relation.HashRelation) {
	orig := p.OrigName[key]
	if orig == "" {
		orig = key.Name
	}
	if p.Multiset[orig] && !p.MagicPreds[key] {
		// Multiset semantics keeps duplicate checks only on magic
		// predicates (paper §4.2).
		rel.Multiset = true
	}
	for _, spec := range p.AggSels[orig] {
		rel.AddAggSel(&relation.AggSel{GroupPos: spec.GroupPos, Op: spec.Op, ValuePos: spec.ValuePos})
	}
	// Index positions below come from compiled rule arguments and
	// arity-checked annotations, so they are always in range; an index is
	// an optimization either way, so a failure just means no index.
	for _, pos := range p.IndexReqs[key] {
		_ = rel.MakeIndex(pos...)
	}
	for _, ann := range p.IndexAnns {
		if ann.Pred != orig || len(ann.Pattern) != key.Arity {
			continue
		}
		if argPos, ok := ann.ArgPositions(); ok {
			_ = rel.MakeIndex(argPos...)
		} else {
			_ = rel.MakePatternIndex(ann.Pattern, ann.KeyVars)
		}
	}
}

// renderRules produces the rewritten-program text (paper §2: "stored as a
// text file — useful as a debugging aid").
func renderRules(modName string, rules []*ast.Rule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% rewritten program for module %s\n", modName)
	for _, r := range rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
