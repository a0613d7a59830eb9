package relation

import (
	"coral/internal/term"
)

// JoinTable is the build side of a hash join: a transient hash table over
// the facts of one scan range, keyed by the values at a fixed subset of
// argument positions. Where an argIndex is a persistent structure on a
// relation's whole history, a JoinTable is built for one rule evaluation
// over exactly the ordinal range the semi-naive discipline assigns, probed
// many times, and discarded (or cached per range by the engine).
//
// Both containers are pre-sized from the relation's live statistics — the
// fact slice to the expected row count and the bucket map to the expected
// distinct key count — which avoids rehash-and-copy cycles during the
// build (hash-join pre-sizing is a measured win; see DESIGN.md §5.14).
//
// Facts whose key positions are not all ground go to an overflow list and
// are returned on every probe, mirroring the argIndex "var" bucket: a
// non-ground stored fact can unify with any key. Probes whose own key
// values are not all ground degrade to scanning the whole table.
//
// Entries are numbered in insertion order, and Probe merges its bucket
// with the overflow list in ascending entry order, so a probe enumerates
// candidates in exactly the order the equivalent nested-loops scan would —
// only the non-matching ones are skipped. A JoinTable is written by one
// goroutine during its build and read-only afterwards; concurrent probes
// of a completed table are safe.
type JoinTable struct {
	keyPos   []int
	facts    []Fact
	buckets  map[uint64][]int32
	overflow []int32
}

// NewJoinTable creates an empty build table keyed on keyPos. rowsHint and
// distinctHint pre-size the fact slice and the bucket map; zero hints fall
// back to small defaults and grow as usual.
func NewJoinTable(keyPos []int, rowsHint, distinctHint int) *JoinTable {
	if rowsHint < 0 {
		rowsHint = 0
	}
	if distinctHint < 0 {
		distinctHint = 0
	}
	if distinctHint > rowsHint {
		distinctHint = rowsHint
	}
	return &JoinTable{
		keyPos:  keyPos,
		facts:   make([]Fact, 0, rowsHint),
		buckets: make(map[uint64][]int32, distinctHint),
	}
}

// Len returns the number of facts added.
func (t *JoinTable) Len() int { return len(t.facts) }

// Add appends one build-side fact. The caller drives the scan (and its
// budget polling); Add itself is O(1) amortized.
func (t *JoinTable) Add(f Fact) {
	ord := int32(len(t.facts))
	t.facts = append(t.facts, f)
	h, ground := term.HashBound(f.Args, t.keyPos, nil)
	if !ground {
		t.overflow = append(t.overflow, ord)
		return
	}
	t.buckets[h] = append(t.buckets[h], ord)
}

// JoinProbe enumerates the table entries whose key may match one probe
// pattern. It is reusable — Reset rebinds it to a new probe without
// allocating — so the engine keeps one per join frame.
type JoinProbe struct {
	table   *JoinTable
	bucket  []int32 // matching-hash entries, ascending; nil on full scan
	over    []int32 // overflow entries, ascending; nil on full scan
	bi, oi  int
	scanPos int // next entry on the full-scan path; -1 for bucket mode
}

// Probe resets p to enumerate candidates for pattern under env. A probe
// with ground key values visits the matching bucket merged with the
// overflow list; a non-ground probe visits every entry.
func (t *JoinTable) Probe(pattern []term.Term, env *term.Env, p *JoinProbe) {
	p.table = t
	h, ground := term.HashBound(pattern, t.keyPos, env)
	if !ground {
		p.bucket, p.over = nil, nil
		p.scanPos = 0
		return
	}
	p.bucket = t.buckets[h]
	p.over = t.overflow
	p.bi, p.oi = 0, 0
	p.scanPos = -1
}

// Next implements Iterator: the next candidate fact in entry order.
func (p *JoinProbe) Next() (Fact, bool) {
	if p.scanPos >= 0 {
		if p.scanPos >= len(p.table.facts) {
			return Fact{}, false
		}
		f := p.table.facts[p.scanPos]
		p.scanPos++
		return f, true
	}
	// Merge bucket and overflow in ascending entry order (both sorted).
	hasB := p.bi < len(p.bucket)
	hasO := p.oi < len(p.over)
	switch {
	case hasB && (!hasO || p.bucket[p.bi] < p.over[p.oi]):
		f := p.table.facts[p.bucket[p.bi]]
		p.bi++
		return f, true
	case hasO:
		f := p.table.facts[p.over[p.oi]]
		p.oi++
		return f, true
	default:
		return Fact{}, false
	}
}
