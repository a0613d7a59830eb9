package relation

import (
	"coral/internal/term"
)

// Versioned reads (DESIGN.md §5.16). A HashRelation's append-only ordinal
// order makes "everything below mark M" a consistent historical view: facts
// never move (the facts slice is never compacted), posting lists are
// ordinal-sorted, and appends only extend the relation past any previously
// captured mark. A Prefix captures one such view — the mark plus the
// relation's destructive-mutation counter at capture time — and serves every
// read clamped below the mark. The coral server builds snapshot-isolated
// reader sessions out of these: a session captures a Prefix per base
// relation once, and each of its queries reads exactly the facts that were
// live at capture, however many append-only fact loads commit in between.
//
// A Prefix is a *logical* snapshot, not a synchronization device: reads
// through it obey the same single-writer contract as reads on the relation
// itself (§5.9). The server's epoch guard provides the mutual exclusion;
// the Prefix provides the cross-query consistency.
//
// Destructive changes — Delete, Clear, TruncateTo — can remove facts below
// a captured mark, silently breaking the "consistent historical view"
// promise. Valid detects that: it compares the relation's Mutations counter
// against the capture-time value, so a Prefix outlived by a destructive
// change reports itself stale instead of returning a torn view.

// Prefix is a read-only view of a HashRelation restricted to the facts
// that were present (and live) when the view was captured.
type Prefix struct {
	r    *HashRelation
	to   Mark
	muts int
}

// PrefixView captures the relation's current extent as a read view. Facts
// appended afterwards are invisible to it; see Valid for destructive
// changes.
func (r *HashRelation) PrefixView() *Prefix {
	return &Prefix{r: r, to: r.Snapshot(), muts: r.Mutations()}
}

// PrefixAt captures a read view at an explicit historical mark (clamped to
// the current extent).
func (r *HashRelation) PrefixAt(to Mark) *Prefix {
	if cur := r.Snapshot(); to > cur {
		to = cur
	}
	return &Prefix{r: r, to: to, muts: r.Mutations()}
}

// Rel returns the underlying relation (the engine unwraps it for planner
// statistics and for index-cursor scans, whose ranges are bounded by
// Snapshot and therefore respect the cap).
func (p *Prefix) Rel() *HashRelation { return p.r }

// Valid reports whether the view still is the consistent historical state
// it captured: no destructive mutation (delete, truncation, clear) has hit
// the relation since. Appends never invalidate.
func (p *Prefix) Valid() bool {
	return p.r.Mutations() == p.muts && p.r.Snapshot() >= p.to
}

// Name implements the read side of Relation.
func (p *Prefix) Name() string { return p.r.Name() }

// Arity implements the read side of Relation.
func (p *Prefix) Arity() int { return p.r.Arity() }

// Len counts the live facts below the captured mark.
func (p *Prefix) Len() int { return p.r.LiveWithin(0, p.to) }

// Snapshot returns the captured mark: the view's extent never grows.
func (p *Prefix) Snapshot() Mark { return p.to }

// Scan iterates the captured prefix.
func (p *Prefix) Scan() Iterator { return p.r.ScanRange(0, p.to) }

// ScanRange iterates [from, to) clamped to the captured mark.
func (p *Prefix) ScanRange(from, to Mark) Iterator {
	if to > p.to {
		to = p.to
	}
	return p.r.ScanRange(from, to)
}

// Lookup is an index lookup restricted to the captured prefix.
func (p *Prefix) Lookup(pattern []term.Term, env *term.Env) Iterator {
	return p.r.LookupRange(pattern, env, 0, p.to)
}

// LookupRange is Lookup over [from, to) clamped to the captured mark.
func (p *Prefix) LookupRange(pattern []term.Term, env *term.Env, from, to Mark) Iterator {
	if to > p.to {
		to = p.to
	}
	return p.r.LookupRange(pattern, env, from, to)
}

// LiveWithin counts the live (non-tombstoned) facts with ordinals in
// [from, to) — the Len of a historical view.
func (r *HashRelation) LiveWithin(from, to Mark) int {
	lo, hi := int(from), int(to)
	if hi > len(r.facts) {
		hi = len(r.facts)
	}
	if lo < 0 {
		lo = 0
	}
	n := 0
	for ord := lo; ord < hi; ord++ {
		if !r.facts[ord].dead {
			n++
		}
	}
	return n
}
