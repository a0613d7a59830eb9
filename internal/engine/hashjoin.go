package engine

import "coral/internal/relation"

// Hash-join execution (paper §5.3 extends naturally: the optimizer's access
// annotations here include a build/probe access path, not only indexes).
//
// The planner (plan.go) marks a scheduled body item with HashKeyPos when the
// estimated flow of partial bindings reaching it amortizes building a
// transient hash table over the item's scan range. lookupFor then serves the
// item's scans from that table: the build costs one ordered pass over the
// range, pre-sized from live statistics, and every subsequent probe is a
// bucket lookup with zero allocations (the probe cursor lives in the join
// frame). Within one rule application lookupFor reopens the item's scan once
// per outer tuple, so the table is built once and probed many times; across
// rounds the cache revalidates by range and by the relation's mutation
// counter, rebuilding only when the semi-naive marks have moved.
//
// Candidate order is preserved exactly: a JoinTable probe yields entries in
// ascending insertion order over the same ordinal range a nested-loops scan
// would walk, so the accepted-candidate sequence — and therefore every
// emission, duplicate decision, and the parallel round's merge order — is
// byte-identical to the index-lookup path's.

// tableCacheMax bounds the build-table cache; past it the cache is evicted
// wholesale (entries are tied to plan versions, so steady-state evaluations
// hold a handful).
const tableCacheMax = 256

// builtTable is one cached build table plus the coordinates it is valid
// for: the exact ordinal range it was loaded from and the relation's
// mutation counter at build time. Appends beyond the range do not
// invalidate; any delete, truncation, or clear does.
type builtTable struct {
	from, to relation.Mark
	muts     int
	tab      *relation.JoinTable
}

// hashRelOf unwraps a Source down to its plain *HashRelation, or nil when
// the source is anything else (module calls, computed, list relations).
func hashRelOf(src Source) *relation.HashRelation {
	switch s := src.(type) {
	case *relation.HashRelation:
		return s
	case *relation.Prefix:
		// Build tables over a snapshot view load the underlying relation
		// bounded by scanBounds, whose upper mark is the view's Snapshot —
		// the captured cap — so the table never sees past the snapshot.
		return s.Rel()
	case relSource:
		hr, _ := s.r.(*relation.HashRelation)
		return hr
	}
	return nil
}

// hashRelOfWritable is hashRelOf restricted to relations this evaluation
// may mutate: it has no *relation.Prefix case, so index creation and any
// other write can never reach the relation underneath a snapshot view, no
// matter what dynamic gates surround the call site. Prefix-backed sources
// serve reads only (build tables, scans) through hashRelOf.
func hashRelOfWritable(src Source) *relation.HashRelation {
	switch s := src.(type) {
	case *relation.HashRelation:
		return s
	case relSource:
		hr, _ := s.r.(*relation.HashRelation)
		return hr
	}
	return nil
}

// scanBounds returns the ordinal range the semi-naive discipline assigns to
// relation item it under rr, keyed on the written occurrence (OrigPos).
func scanBounds(it *CItem, rr ruleRanges, src Source) (relation.Mark, relation.Mark) {
	if !it.Recursive || rr.DeltaPos < 0 {
		return 0, src.Snapshot()
	}
	switch {
	case it.OrigPos == rr.DeltaPos:
		return rr.Last[it.Slot], rr.Now[it.Slot]
	case it.OrigPos < rr.DeltaPos:
		return 0, rr.Last[it.Slot]
	default:
		return 0, rr.Now[it.Slot]
	}
}

// tableFor returns a valid build table for the hash-marked item over
// [from, to) of hr, building one on a miss. Read-only evaluators — the
// parallel round's workers, which share the writer's cache — return nil on
// a miss instead, and the caller falls back to the nested-loops path.
func (ev *evaluator) tableFor(it *CItem, hr *relation.HashRelation, from, to relation.Mark) *builtTable {
	bt := ev.tables[it]
	if bt != nil && bt.from == from && bt.to == to &&
		bt.muts == hr.Mutations() && hr.Snapshot() >= to {
		return bt
	}
	if ev.tablesRO {
		return nil
	}
	return ev.buildTable(it, hr, from, to)
}

// buildTable loads [from, to) of hr into a fresh table keyed on
// it.HashKeyPos and caches it under the item. The table is pre-sized from
// the relation's live statistics: the fact slice to the range's row count
// and the bucket map to the key's estimated distinct count (a multi-position
// key has at least as many distinct values as its most selective position).
// Runs only on the evaluation's writer goroutine (like planFor); the build
// loop polls the budget, so it may throw.
func (ev *evaluator) buildTable(it *CItem, hr *relation.HashRelation, from, to relation.Mark) *builtTable {
	if ev.tables == nil {
		ev.tables = make(map[*CItem]*builtTable)
	} else if len(ev.tables) >= tableCacheMax {
		for k := range ev.tables {
			delete(ev.tables, k)
		}
	}
	st := hr.Stats()
	rows := int(to - from)
	if rows > st.Rows {
		rows = st.Rows // tombstones: the range holds at most the live count
	}
	distinct := 0
	for _, p := range it.HashKeyPos {
		if p < len(st.Distinct) && st.Distinct[p] > distinct {
			distinct = st.Distinct[p]
		}
	}
	if distinct == 0 || distinct > rows {
		distinct = rows
	}
	bt := &builtTable{from: from, to: to, muts: hr.Mutations(),
		tab: relation.NewJoinTable(it.HashKeyPos, rows, distinct)}
	sc := hr.ScanRange(from, to)
	for {
		f, ok := sc.Next()
		if !ok {
			break
		}
		ev.pollBudget()
		bt.tab.Add(f)
	}
	ev.HashBuilds++
	ev.tables[it] = bt
	return bt
}

// prebuildTables builds, on the writer goroutine, every build table a
// planned rule version will want, so the parallel round's workers can probe
// the shared cache read-only. A source that fails to resolve is skipped —
// the evaluation itself surfaces that error. The builds poll the budget, so
// a trip is returned as the round's error.
func (me *matEval) prebuildTables(c *Compiled, rr ruleRanges) (err error) {
	defer recoverEval(&err)
	for i := range c.Body {
		it := &c.Body[i]
		if it.HashKeyPos == nil {
			continue
		}
		src, serr := me.st.source(it.Pred)
		if serr != nil {
			continue
		}
		hr := hashRelOf(src)
		if hr == nil {
			continue
		}
		from, to := scanBounds(it, rr, src)
		me.ev.tableFor(it, hr, from, to)
	}
	return nil
}
