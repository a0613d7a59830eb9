package relation

import (
	"fmt"

	"coral/internal/term"
)

// argIndex is the traditional multi-attribute hash index on a subset of the
// arguments of a relation (paper §3.3, "argument form indices"). Facts
// whose indexed arguments are not all ground hash to the special bucket the
// paper calls "var" and are returned on every lookup.
type argIndex struct {
	positions []int
	buckets   map[uint64][]int32
	varBucket []int32
}

// MakeIndex adds an argument-form index on the given positions, indexing
// existing facts. Adding an index that already exists is a no-op (paper
// allows indices to "be added to existing relations"). An out-of-range
// position is reported as an error, leaving the relation unchanged.
func (r *HashRelation) MakeIndex(positions ...int) error {
	for _, p := range positions {
		if p < 0 || p >= r.arity {
			return fmt.Errorf("relation: %s/%d: index position %d out of range", r.name, r.arity, p)
		}
	}
	for _, ix := range r.indexes {
		if samePositions(ix.positions, positions) {
			return nil
		}
	}
	ix := &argIndex{positions: positions, buckets: make(map[uint64][]int32)}
	for ord := range r.facts {
		// Dead facts keep postings until compaction; iterators skip them.
		ix.insert(r.facts[ord].fact, int32(ord))
	}
	r.indexes = append(r.indexes, ix)
	return nil
}

// HasIndex reports whether an argument-form index exists on exactly these
// positions.
func (r *HashRelation) HasIndex(positions ...int) bool {
	for _, ix := range r.indexes {
		if samePositions(ix.positions, positions) {
			return true
		}
	}
	return false
}

func samePositions(a, b []int) bool {
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

func (ix *argIndex) insert(f Fact, ord int32) {
	h, ground := term.HashBound(f.Args, ix.positions, nil)
	if !ground {
		ix.varBucket = append(ix.varBucket, ord)
		return
	}
	ix.buckets[h] = append(ix.buckets[h], ord)
}

func (ix *argIndex) clear() {
	ix.buckets = make(map[uint64][]int32)
	ix.varBucket = nil
}

// usable reports whether every indexed position is ground in the pattern
// under env.
func (ix *argIndex) usable(pattern []term.Term, env *term.Env) bool {
	for _, p := range ix.positions {
		if !term.GroundUnder(pattern[p], env) {
			return false
		}
	}
	return true
}

// lookup returns the postings a pattern selects: the bucket of its key and
// the var bucket. It reports false when the pattern is not ground at the
// indexed positions.
func (ix *argIndex) lookup(pattern []term.Term, env *term.Env) (bucket, vars []int32, ok bool) {
	h, ground := term.HashBound(pattern, ix.positions, env)
	if !ground {
		return nil, nil, false
	}
	return ix.buckets[h], ix.varBucket, true
}

// IndexCursor iterates the facts an index lookup selects within an ordinal
// range: the merge, in ascending ordinal order, of the key's bucket and the
// index's var bucket, skipping tombstones. It visits exactly the candidates,
// in exactly the order, that a scan of the same range would pass to the
// join — only the facts the key rules out are skipped.
//
// A cursor is reusable: Lookup resets it in place. The join keeps one per
// nested-loops position and reopens it per outer tuple, so an indexed scan
// allocates nothing. The zero value is an exhausted cursor.
type IndexCursor struct {
	rel          *HashRelation
	bucket, vars []int32 // unvisited postings, each ordinal-sorted
	to           int32
}

// Lookup resets c to the facts of r in [from, to) that the best usable
// index selects for pattern under env (LookupRange's choice), and reports
// whether an index served the pattern. On false c is left as it was and the
// caller scans the range instead.
func (c *IndexCursor) Lookup(r *HashRelation, pattern []term.Term, env *term.Env, from, to Mark) bool {
	bucket, vars, ok := r.postings(pattern, env)
	if ok {
		c.reset(r, bucket, vars, from, to)
	}
	return ok
}

func (c *IndexCursor) reset(r *HashRelation, bucket, vars []int32, from, to Mark) {
	c.rel, c.to = r, int32(to)
	c.bucket = bucket[lowerBound(bucket, int32(from)):]
	c.vars = vars[lowerBound(vars, int32(from)):]
}

// Next implements Iterator.
func (c *IndexCursor) Next() (Fact, bool) {
	for {
		var ord int32
		switch {
		case len(c.bucket) > 0 && c.bucket[0] < c.to && (len(c.vars) == 0 || c.bucket[0] < c.vars[0]):
			ord, c.bucket = c.bucket[0], c.bucket[1:]
		case len(c.vars) > 0 && c.vars[0] < c.to:
			ord, c.vars = c.vars[0], c.vars[1:]
		default:
			return Fact{}, false
		}
		if sf := &c.rel.facts[ord]; !sf.dead {
			return sf.fact, true
		}
	}
}
