package engine

import "coral/internal/relation"

// Hash-join execution (paper §5.3 extends naturally: the optimizer's access
// annotations here include a build/probe access path, not only indexes).
//
// The planner (plan.go) marks a scheduled body item with HashKeyPos when the
// estimated flow of partial bindings reaching it amortizes building a
// transient hash table over the item's scan range. The round prologue then
// fills the item's slot of the version's table array (fillTables) and the
// driver serves the item's scans from it (openScan): the build costs one
// ordered pass over the range, pre-sized from live statistics, and every
// probe is a bucket lookup with zero allocations (the probe cursor lives in
// the join frame). Within one rule application the item's scan is reopened
// once per outer tuple, so the table is built once and probed many times;
// across rounds a slot revalidates by range and by the relation's mutation
// counter, rebuilding only when the semi-naive marks have moved.
//
// Candidate order is preserved exactly: a JoinTable probe yields entries in
// ascending insertion order over the same ordinal range a nested-loops scan
// would walk, so the accepted-candidate sequence — and therefore every
// emission, duplicate decision, and the parallel round's merge order — is
// byte-identical to the index-lookup path's.

// builtTable is one build table plus the coordinates it is valid for: the
// exact ordinal range it was loaded from and the relation's mutation counter
// at build time. Appends beyond the range do not invalidate; any delete,
// truncation, or clear does.
type builtTable struct {
	from, to relation.Mark
	muts     int
	tab      *relation.JoinTable
}

// hashRelOf unwraps a Source down to its plain *HashRelation, or nil when
// the source is anything else (module calls, computed, persistent relations).
func hashRelOf(src Source) *relation.HashRelation {
	if p, ok := src.(*relation.Prefix); ok {
		// Build tables over a snapshot view load the underlying relation
		// bounded by scanBounds, whose upper mark is the view's Snapshot —
		// the captured cap — so the table never sees past the snapshot.
		return p.Rel()
	}
	return hashRelOfWritable(src)
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
func scanBounds(it *CItem, rr *ruleRanges, src Source) (relation.Mark, relation.Mark) {
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

// fillTables is the table step of the round prologue: it walks the planned
// version p in schedule order and makes the slot of every hash-marked item
// hold a table valid for the range rr assigns the item, rebuilding the ones
// whose range or relation has moved since they were built. The walk stops
// behind the first hash relation whose range is empty — the join cannot get
// past it this round, so nothing to its right is probed. Runs on the
// evaluation's writer goroutine, before the version is applied inline or
// handed to pool workers; the builds poll the budget, and a trip comes back
// as the round's error.
func (me *matEval) fillTables(p *cachedPlan, rr *ruleRanges) (err error) {
	defer recoverEval(&err)
	for i := range p.planned.Body {
		it := &p.planned.Body[i]
		hr := p.rels[it.OrigPos]
		if it.Kind != ItemRel || hr == nil {
			continue // only a hash relation's marks say what a scan will cover
		}
		from, to := scanBounds(it, rr, p.srcs[it.OrigPos])
		if bt := p.tables[i]; it.HashKeyPos != nil && (bt == nil || bt.from != from ||
			bt.to != to || bt.muts != hr.Mutations() || hr.Snapshot() < to) {
			p.tables[i] = me.ev.buildTable(it, hr, from, to)
		}
		if from >= to {
			break
		}
	}
	return nil
}

// buildTable loads [from, to) of hr into a fresh table keyed on
// it.HashKeyPos. The table is pre-sized from the relation's live statistics:
// the fact slice to the range's row count and the bucket map to the key's
// estimated distinct count (a multi-position key has at least as many
// distinct values as its most selective position). The build loop polls the
// budget, so it may throw.
func (ev *evaluator) buildTable(it *CItem, hr *relation.HashRelation, from, to relation.Mark) *builtTable {
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
	return bt
}
