package relation

import (
	"coral/internal/term"
)

// HashRelation is the default in-memory relation (paper §3.2). Facts are
// stored in insertion order; a Mark is simply a watermark into that order,
// which gives the paper's "subsidiary relation per interval between marks"
// its moral equivalent: every scan and every index lookup can be restricted
// to an ordinal range, and indexes keep working across marks (bucket
// postings are ordinal-sorted, so a range restriction is a binary search).
//
// Duplicate elimination ("subsumption checks", §4.2) is on by default:
// a fact is rejected if a variant of it is already present, or — when
// non-ground facts are involved — if an existing fact subsumes it. Setting
// Multiset disables the checks, giving SQL-style duplicate semantics.
//
// # Concurrency contract (DESIGN.md §5.9)
//
// A HashRelation is single-writer. Any number of goroutines may read
// concurrently — Scan/ScanRange/Lookup/LookupRange and their iterators —
// provided no goroutine is mutating the relation at the same time. The
// parallel fixpoint round exploits exactly this: workers read Mark-bounded
// prefixes frozen at the top of the round while all writes are buffered,
// and the single merge writer applies the buffer after every reader has
// reached the round barrier. There is no internal locking; interleaving a
// writer with concurrent readers is a data race.
//
// Within the single-writer regime, iterators stay valid across writes:
// appends only extend the facts slice beyond an iterator's bound, deletes
// only tombstone (the facts slice is never compacted, because ordinals are
// the Mark coordinate system), and posting-list compaction allocates fresh
// slices so an in-flight iterator keeps its — merely staler — view.
type HashRelation struct {
	name  string
	arity int

	facts []storedFact
	live  int

	// dedup maps the variant hash of a fact to the ordinals of facts with
	// that hash.
	dedup map[uint64][]int32
	// nonground lists ordinals of live non-ground facts (usually empty);
	// subsumption against these is linear.
	nonground []int32

	indexes    []*argIndex
	patIndexes []*patternIndex

	// Multiset disables duplicate and subsumption checks (paper §4.2).
	Multiset bool
	// aggSels filter insertions through aggregate selections (paper
	// §5.5.2); a fact is admitted only if every selection admits it.
	aggSels []*AggSel

	inserted int // total insert attempts, for statistics

	// colSketch holds one distinct-value sketch per argument position,
	// feeding Stats() for the cost-based join planner (see stats.go).
	colSketch []distinctSketch

	// deadAtCompact is the tombstone count at the last posting compaction;
	// compaction triggers on tombstones added since (see maybeCompact).
	deadAtCompact int

	// mutations counts destructive changes — deletes, truncations, clears.
	// Appends never bump it: a view over a mark-bounded prefix (a snapshot's
	// Prefix) stays valid across appends, and checks this counter to detect
	// everything else.
	mutations int
}

// compactMinDead is the minimum number of new tombstones before a posting
// compaction is considered (a package variable so tests can lower it).
var compactMinDead = 64

type storedFact struct {
	fact Fact
	dead bool
}

// NewHashRelation creates an empty hash relation.
func NewHashRelation(name string, arity int) *HashRelation {
	return &HashRelation{
		name:  name,
		arity: arity,
		dedup: make(map[uint64][]int32),
	}
}

// Name implements Relation.
func (r *HashRelation) Name() string { return r.name }

// Arity implements Relation.
func (r *HashRelation) Arity() int { return r.arity }

// Len implements Relation.
func (r *HashRelation) Len() int { return r.live }

// InsertAttempts returns the total number of Insert calls; the difference
// from Len measures duplicate work (experiments E01/E14).
func (r *HashRelation) InsertAttempts() int { return r.inserted }

// Insert implements Relation. f must be canonical (see Fact).
func (r *HashRelation) Insert(f Fact) bool {
	if len(f.Args) != r.arity {
		// lint:allow panic — arity is fixed at compile time; a mismatch is a bug, not a bad query
		panic("relation: arity mismatch inserting into " + r.name)
	}
	r.inserted++
	if !r.Multiset && r.isDuplicate(f) {
		return false
	}
	for _, s := range r.aggSels {
		if !s.check(f) {
			return false
		}
	}
	ord := r.append(f)
	for _, s := range r.aggSels {
		s.commit(r, f, ord)
	}
	return true
}

// append adds f unconditionally, updating dedup and indexes, and returns
// the new fact's ordinal.
func (r *HashRelation) append(f Fact) int32 {
	ord := int32(len(r.facts))
	r.facts = append(r.facts, storedFact{fact: f})
	r.live++
	r.noteStats(f)
	if !r.Multiset {
		h := term.HashArgs(f.Args)
		r.dedup[h] = append(r.dedup[h], ord)
	}
	if f.NVars > 0 {
		r.nonground = append(r.nonground, ord)
	}
	for _, ix := range r.indexes {
		ix.insert(f, ord)
	}
	for _, ix := range r.patIndexes {
		ix.insert(f, ord)
	}
	return ord
}

// isDuplicate reports whether f is a variant of an existing live fact or
// subsumed by an existing non-ground fact.
// ContainsResolved reports whether the relation already holds a live
// ground fact equal to args as they would resolve under env, without
// materializing the resolved fact — the join loop's zero-allocation
// duplicate probe. A true result means Insert of the resolved fact would
// certainly be rejected as a duplicate. A false result promises nothing
// (unbound or constructed arguments, multiset semantics, and subsumption
// by non-ground facts all fall through) — callers must then take the
// ordinary materialize-and-Insert path.
func (r *HashRelation) ContainsResolved(args []term.Term, env *term.Env) bool {
	if r.Multiset {
		return false
	}
	h, ok := term.HashArgsResolved(args, env)
	if !ok {
		return false
	}
	for _, ord := range r.dedup[h] {
		sf := &r.facts[ord]
		if sf.dead || sf.fact.NVars != 0 {
			continue
		}
		if term.EqualArgsResolved(args, env, sf.fact.Args) {
			return true
		}
	}
	return false
}

func (r *HashRelation) isDuplicate(f Fact) bool {
	h := term.HashArgs(f.Args)
	for _, ord := range r.dedup[h] {
		sf := &r.facts[ord]
		if sf.dead {
			continue
		}
		if sf.fact.NVars == f.NVars && term.EqualArgs(sf.fact.Args, f.Args) {
			return true
		}
	}
	// Subsumption by a strictly more general stored fact.
	for _, ord := range r.nonground {
		sf := &r.facts[ord]
		if sf.dead {
			continue
		}
		if term.Subsumes(sf.fact.Args, sf.fact.NVars, f.Args) {
			return true
		}
	}
	return false
}

// DuplicateWithin reports whether f is a variant of — or subsumed by — a
// live fact with ordinal below to. It performs the same checks as Insert's
// duplicate elimination, restricted to the Mark-bounded prefix, and never
// mutates the relation: under the single-writer contract (see the type
// comment) the parallel round's workers call it concurrently to discard
// rederivations of round-start facts before the merge barrier. A false
// result is not a promise of admission — the merge writer still runs the
// full check against facts inserted after to.
func (r *HashRelation) DuplicateWithin(f Fact, to Mark) bool {
	h := term.HashArgs(f.Args)
	for _, ord := range r.dedup[h] {
		if ord >= int32(to) {
			break // postings are ordinal-sorted
		}
		sf := &r.facts[ord]
		if sf.dead {
			continue
		}
		if sf.fact.NVars == f.NVars && term.EqualArgs(sf.fact.Args, f.Args) {
			return true
		}
	}
	for _, ord := range r.nonground {
		if ord >= int32(to) {
			break
		}
		sf := &r.facts[ord]
		if sf.dead {
			continue
		}
		if term.Subsumes(sf.fact.Args, sf.fact.NVars, f.Args) {
			return true
		}
	}
	return false
}

// Delete implements Deleter: every live fact unifying with pattern under
// env is removed.
func (r *HashRelation) Delete(pattern []term.Term, env *term.Env) int {
	// Canonicalize the pattern so its variables are densely numbered (the
	// public API may pass parser-style unnumbered variables).
	pat, nvars := term.ResolveArgs(pattern, env)
	var tr term.Trail
	removed := 0
	penv := term.NewEnv(nvars)
	for ord := range r.facts {
		sf := &r.facts[ord]
		if sf.dead {
			continue
		}
		fenv := term.NewEnv(sf.fact.NVars)
		m := tr.Mark()
		ok := term.UnifyArgs(pat, penv, sf.fact.Args, fenv, &tr)
		tr.Undo(m)
		if ok {
			r.deleteOrd(int32(ord))
			removed++
		}
	}
	return removed
}

func (r *HashRelation) deleteOrd(ord int32) {
	sf := &r.facts[ord]
	if sf.dead {
		return
	}
	sf.dead = true
	r.live--
	r.mutations++
	// dedup postings and index postings keep the ordinal until enough
	// tombstones accumulate; iterators skip dead facts either way. Heavy
	// @aggregate_selection churn would otherwise leave lookups scanning
	// mostly-dead buckets forever.
	r.maybeCompact()
}

// maybeCompact drops dead ordinals from the posting lists once the
// tombstones added since the previous compaction outnumber both
// compactMinDead and the live facts (so at least half of all postings are
// provably dead). The trigger counts tombstones since the last compaction —
// not the total — because the facts slice is never rewritten and the
// all-time dead ratio therefore never drops.
func (r *HashRelation) maybeCompact() {
	dead := len(r.facts) - r.live
	newDead := dead - r.deadAtCompact
	if newDead < compactMinDead || newDead < r.live {
		return
	}
	r.compactPostings()
	r.deadAtCompact = dead
}

// compactPostings removes dead ordinals from every posting list: the dedup
// map, the non-ground list, and the argument- and pattern-form indexes.
// The facts slice itself is untouched (ordinals must stay stable for
// Marks). Replacement lists are freshly allocated rather than filtered in
// place: an in-flight iterator holds the old slice header and must keep a
// consistent view.
func (r *HashRelation) compactPostings() {
	for h, l := range r.dedup {
		if nl := r.liveOnly(l); len(nl) == 0 {
			delete(r.dedup, h)
		} else {
			r.dedup[h] = nl
		}
	}
	r.nonground = r.liveOnly(r.nonground)
	for _, ix := range r.indexes {
		for h, l := range ix.buckets {
			if nl := r.liveOnly(l); len(nl) == 0 {
				delete(ix.buckets, h)
			} else {
				ix.buckets[h] = nl
			}
		}
		ix.varBucket = r.liveOnly(ix.varBucket)
	}
	for _, ix := range r.patIndexes {
		for h, l := range ix.buckets {
			if nl := r.liveOnly(l); len(nl) == 0 {
				delete(ix.buckets, h)
			} else {
				ix.buckets[h] = nl
			}
		}
		ix.overflow = r.liveOnly(ix.overflow)
	}
}

// liveOnly returns a newly allocated copy of l without dead ordinals
// (nil when none survive).
func (r *HashRelation) liveOnly(l []int32) []int32 {
	var nl []int32
	for _, ord := range l {
		if !r.facts[ord].dead {
			nl = append(nl, ord)
		}
	}
	return nl
}

// TruncateTo rolls the relation back to a previous Snapshot: every fact
// with ordinal >= mark is removed as if never inserted. The engine uses it
// to make an aborted fixpoint round atomic (DESIGN.md §5.11).
//
// All derived structures are restored to a consistent state: dedup,
// non-ground and index postings are cut back so nothing points at a
// rolled-back ordinal (postings are ordinal-sorted, so the cut is a binary
// search per list); the per-column distinct sketches are rebuilt from the
// surviving facts (linear counting cannot forget); the compaction trigger
// is re-clamped so posting compaction keeps firing at the intended churn
// threshold; and aggregate-selection group state is rebuilt so no group
// holds a rolled-back ordinal.
//
// Two contractual limits. First, TruncateTo rolls back insertions, not
// deletions: a fact below mark that was tombstoned (Delete, or displaced by
// an aggregate selection) stays dead — callers that need delete-exact
// rollback must not use TruncateTo on relations with aggregate selections
// (the engine invalidates those evaluations wholesale instead). Second,
// unlike appends and posting compaction, truncation invalidates iterators
// whose range extends past mark; the single-writer contract's writer must
// only truncate marks no live reader has been handed.
func (r *HashRelation) TruncateTo(mark Mark) {
	m := int(mark)
	if m < 0 {
		m = 0
	}
	if m >= len(r.facts) {
		return
	}
	r.mutations++
	removed := 0
	for ord := m; ord < len(r.facts); ord++ {
		if !r.facts[ord].dead {
			r.live--
		}
		removed++
	}
	r.facts = r.facts[:m]
	if r.inserted > removed {
		r.inserted -= removed
	} else {
		r.inserted = 0
	}
	limit := int32(m)
	cut := func(l []int32) []int32 { return l[:lowerBound(l, limit)] }
	for h, l := range r.dedup {
		if nl := cut(l); len(nl) == 0 {
			delete(r.dedup, h)
		} else {
			r.dedup[h] = nl
		}
	}
	r.nonground = cut(r.nonground)
	for _, ix := range r.indexes {
		for h, l := range ix.buckets {
			if nl := cut(l); len(nl) == 0 {
				delete(ix.buckets, h)
			} else {
				ix.buckets[h] = nl
			}
		}
		ix.varBucket = cut(ix.varBucket)
	}
	for _, ix := range r.patIndexes {
		for h, l := range ix.buckets {
			if nl := cut(l); len(nl) == 0 {
				delete(ix.buckets, h)
			} else {
				ix.buckets[h] = nl
			}
		}
		ix.overflow = cut(ix.overflow)
	}
	// Truncation can only shrink the tombstone count; clamp the compaction
	// baseline so maybeCompact's "tombstones since last compaction" stays
	// non-negative and the next churn still triggers on schedule.
	if dead := len(r.facts) - r.live; r.deadAtCompact > dead {
		r.deadAtCompact = dead
	}
	// Linear-counting sketches cannot remove values; rebuild them from the
	// surviving live facts so the planner's estimates track reality.
	for i := range r.colSketch {
		r.colSketch[i].reset()
	}
	for ord := range r.facts {
		if !r.facts[ord].dead {
			r.noteStats(r.facts[ord].fact)
		}
	}
	for _, s := range r.aggSels {
		s.truncate(r, limit)
	}
}

// Mutations returns the destructive-change counter: it advances on every
// delete, truncation, or clear, and never on appends. Equal counters before
// and after mean every ordinal below an unchanged Snapshot still holds the
// same live fact.
func (r *HashRelation) Mutations() int { return r.mutations }

// NonGroundWithin reports whether any fact with ordinal in [from, to) was
// inserted non-ground. The answer may be conservatively true for a
// tombstoned non-ground fact whose posting has not been compacted yet.
func (r *HashRelation) NonGroundWithin(from, to Mark) bool {
	i := lowerBound(r.nonground, int32(from))
	return i < len(r.nonground) && r.nonground[i] < int32(to)
}

// Clear removes all facts but keeps index definitions.
func (r *HashRelation) Clear() {
	r.mutations++
	r.facts = nil
	r.live = 0
	r.dedup = make(map[uint64][]int32)
	r.nonground = nil
	r.inserted = 0
	r.deadAtCompact = 0
	for i := range r.colSketch {
		r.colSketch[i].reset()
	}
	for _, ix := range r.indexes {
		ix.clear()
	}
	for _, ix := range r.patIndexes {
		ix.clear()
	}
	for _, s := range r.aggSels {
		s.clear()
	}
}

// Snapshot implements Relation.
func (r *HashRelation) Snapshot() Mark { return Mark(len(r.facts)) }

// Scan implements Relation.
func (r *HashRelation) Scan() Iterator { return r.ScanRange(0, r.Snapshot()) }

// ScanRange implements Relation.
func (r *HashRelation) ScanRange(from, to Mark) Iterator {
	return &rangeIter{rel: r, pos: int(from), to: int(to)}
}

type rangeIter struct {
	rel *HashRelation
	pos int
	to  int
}

func (it *rangeIter) Next() (Fact, bool) {
	for it.pos < it.to {
		sf := &it.rel.facts[it.pos]
		it.pos++
		if !sf.dead {
			return sf.fact, true
		}
	}
	return Fact{}, false
}

// Lookup implements Relation.
func (r *HashRelation) Lookup(pattern []term.Term, env *term.Env) Iterator {
	return r.LookupRange(pattern, env, 0, r.Snapshot())
}

// LookupRange implements Relation: it picks the most selective usable index
// for the pattern; with no usable index it degrades to a range scan.
func (r *HashRelation) LookupRange(pattern []term.Term, env *term.Env, from, to Mark) Iterator {
	bucket, vars, ok := r.postings(pattern, env)
	if !ok {
		return r.ScanRange(from, to)
	}
	c := new(IndexCursor)
	c.reset(r, bucket, vars, from, to)
	return c
}

// postings returns the two posting lists the best usable index selects for
// the pattern under env: the argument-form index with the most positions
// that are all bound (ground), else the first pattern-form index that can
// key the pattern. It reports false when no index serves the pattern.
func (r *HashRelation) postings(pattern []term.Term, env *term.Env) (bucket, vars []int32, ok bool) {
	var best *argIndex
	for _, ix := range r.indexes {
		if !ix.usable(pattern, env) {
			continue
		}
		if best == nil || len(ix.positions) > len(best.positions) {
			best = ix
		}
	}
	if best != nil {
		if bucket, vars, ok = best.lookup(pattern, env); ok {
			return bucket, vars, true
		}
	}
	for _, ix := range r.patIndexes {
		if bucket, vars, ok = ix.lookup(pattern, env); ok {
			return bucket, vars, true
		}
	}
	return nil, nil, false
}

// lowerBound returns the first index in sorted l with l[i] >= v.
func lowerBound(l []int32, v int32) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		if l[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
