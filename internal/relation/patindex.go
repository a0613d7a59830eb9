package relation

import (
	"fmt"

	"coral/internal/term"
)

// patternIndex implements the paper's "pattern form indices" (§3.3,
// §5.5.1): an index on a specified pattern that can contain variables,
// keyed on a chosen subset of those variables. The paper's example —
//
//	@make_index emp(Name, addr(Street, City))(Name, City).
//
// — retrieves employees by name and city without knowing the street, even
// though City sits inside a functor term.
//
// A fact is indexed by matching the pattern against it (one-way); the
// ground bindings of the key variables form the hash key. Facts the
// pattern does not match, or whose key bindings are non-ground, go to the
// overflow bucket and are returned on every lookup.
type patternIndex struct {
	pattern []term.Term // canonical: variables numbered 0..nvars-1
	keyVars []int       // indices of the key variables
	nvars   int

	buckets  map[uint64][]int32
	overflow []int32
}

// MakePatternIndex adds a pattern-form index. pattern must have the
// relation's arity; its variables are canonically renumbered here. keyVars
// names the key variables (by their names in pattern). A pattern of the
// wrong arity or a key name absent from the pattern is reported as an
// error, leaving the relation unchanged.
func (r *HashRelation) MakePatternIndex(pattern []term.Term, keyNames []string) error {
	if len(pattern) != r.arity {
		return fmt.Errorf("relation: %s/%d: index pattern has arity %d", r.name, r.arity, len(pattern))
	}
	canon, nvars := term.ResolveArgs(pattern, nil)
	byName := map[string]int{}
	collectVarNames(canon, byName)
	keyVars := make([]int, 0, len(keyNames))
	for _, name := range keyNames {
		idx, ok := byName[name]
		if !ok {
			return fmt.Errorf("relation: %s/%d: key variable %s not in index pattern", r.name, r.arity, name)
		}
		keyVars = append(keyVars, idx)
	}
	ix := &patternIndex{
		pattern: canon,
		keyVars: keyVars,
		nvars:   nvars,
		buckets: make(map[uint64][]int32),
	}
	for ord := range r.facts {
		ix.insert(r.facts[ord].fact, int32(ord))
	}
	r.patIndexes = append(r.patIndexes, ix)
	return nil
}

func collectVarNames(ts []term.Term, out map[string]int) {
	var walk func(t term.Term)
	walk = func(t term.Term) {
		switch x := t.(type) {
		case *term.Var:
			if _, ok := out[x.Name]; !ok && x.Name != "" {
				out[x.Name] = x.Index
			}
		case *term.Functor:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	for _, t := range ts {
		walk(t)
	}
}

func (ix *patternIndex) insert(f Fact, ord int32) {
	key, ok := ix.keyFor(f.Args, term.NewEnv(f.NVars))
	if !ok {
		ix.overflow = append(ix.overflow, ord)
		return
	}
	ix.buckets[key] = append(ix.buckets[key], ord)
}

// keyFor matches the index pattern against args (under env) and hashes the
// key variable bindings. ok is false when the pattern does not match or a
// key binding is non-ground.
func (ix *patternIndex) keyFor(args []term.Term, env *term.Env) (uint64, bool) {
	penv := term.NewEnv(ix.nvars)
	var tr term.Trail
	defer tr.Undo(0)
	if !term.MatchArgs(ix.pattern, penv, args, env, &tr) {
		return 0, false
	}
	keyTerms := make([]term.Term, len(ix.keyVars))
	for i, kv := range ix.keyVars {
		t, e := term.Deref(&term.Var{Index: kv}, penv)
		if !term.GroundUnder(t, e) {
			return 0, false
		}
		res, _ := term.ResolveArgs([]term.Term{t}, e)
		keyTerms[i] = res[0]
	}
	return term.HashArgs(keyTerms), true
}

func (ix *patternIndex) clear() {
	ix.buckets = make(map[uint64][]int32)
	ix.overflow = nil
}

// lookup keys the query pattern the same way facts are keyed and returns
// the key's bucket and the overflow bucket. ok is false when this index
// cannot serve the query (pattern mismatch or non-ground key), in which case
// the relation falls back to other indexes or a scan.
func (ix *patternIndex) lookup(pattern []term.Term, env *term.Env) (bucket, overflow []int32, ok bool) {
	key, ok := ix.keyFor(pattern, env)
	if !ok {
		return nil, nil, false
	}
	return ix.buckets[key], ix.overflow, true
}
