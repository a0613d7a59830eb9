package relation

import (
	"fmt"
	"testing"

	"coral/internal/term"
)

// TestIndexCursorMatchesLookup: a reused cursor yields, for every key and
// every sub-range, exactly the facts LookupRange does, in the same order —
// the var bucket's non-ground facts merged in by ordinal, tombstones skipped
// — and Lookup reports false, leaving the cursor as it was, when no index
// covers the pattern's bound positions.
func TestIndexCursorMatchesLookup(t *testing.T) {
	r := NewHashRelation("p", 2)
	r.MakeIndex(0)
	for i := 0; i < 60; i++ {
		r.Insert(fact(term.Int(i%7), term.Int(i)))
		if i%10 == 3 {
			r.Insert(NewFact([]term.Term{term.NewVar("X"), term.Int(100 + i)}, nil))
		}
	}
	r.Delete([]term.Term{term.Int(2), term.Int(9)}, nil)
	to := r.Snapshot()
	var c IndexCursor
	for k := 0; k < 8; k++ {
		pat := []term.Term{term.Int(k), term.NewVar("Y")}
		for _, rng := range [][2]Mark{{0, to}, {5, to - 5}, {to / 2, to}, {3, 3}} {
			if !c.Lookup(r, pat, nil, rng[0], rng[1]) {
				t.Fatalf("key %d: the index on position 0 did not serve the lookup", k)
			}
			got, want := fmt.Sprint(Drain(&c)), fmt.Sprint(Drain(r.LookupRange(pat, nil, rng[0], rng[1])))
			if got != want {
				t.Fatalf("key %d, range %v: cursor %s, LookupRange %s", k, rng, got, want)
			}
		}
	}
	if c.Lookup(r, []term.Term{term.NewVar("X"), term.Int(5)}, nil, 0, to) {
		t.Fatal("a pattern unbound at every indexed position was served from the index")
	}
	if f, ok := c.Next(); ok {
		t.Fatalf("a declined lookup left the cursor yielding %v", f)
	}
}

// TestIndexCursorReopenAllocatesNothing: reopening an indexed scan with a
// reused cursor — what the join does once per outer tuple — allocates
// nothing.
func TestIndexCursorReopenAllocatesNothing(t *testing.T) {
	r := edgeRel(t, 100)
	r.MakeIndex(0)
	var c IndexCursor
	pat := []term.Term{term.Int(42), term.NewVar("Y")}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		c.Lookup(r, pat, nil, 0, r.Snapshot())
		for _, ok := c.Next(); ok; _, ok = c.Next() {
			n++
		}
	})
	if allocs != 0 || n == 0 {
		t.Errorf("reopening an indexed scan: %.1f allocations, %d facts", allocs, n)
	}
}
