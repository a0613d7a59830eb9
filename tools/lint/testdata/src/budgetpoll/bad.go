// Package engine is a lint fixture: the budgetpoll analyzer only fires
// on the engine package, where budgetGuard lives. Exactly one loop below
// violates the rule (a raw unpolled drain); the rest exercise the accepted
// shapes.
package engine

type iter struct{}

func (iter) Next() (int, bool) { return 0, false }

type guard struct{}

func (guard) pollBudget() {}
func (guard) poll()       {}

// scanWithoutPoll is the seeded violation: an unbounded iterator drain
// with no amortized budget check.
func scanWithoutPoll(it iter) int {
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			return n
		}
		n++
	}
}

// scanWithPoll is the sanctioned shape: the loop polls the guard.
func scanWithPoll(it iter, g guard) int {
	n := 0
	for {
		g.pollBudget()
		_, ok := it.Next()
		if !ok {
			return n
		}
		n++
	}
}

// scanAnnotated shows the escape hatch for provably bounded scans.
func scanAnnotated(it iter) int {
	n := 0
	// lint:allow scanloop — fixture: pretend this drains a materialized relation.
	for {
		_, ok := it.Next()
		if !ok {
			return n
		}
		n++
	}
}

// peekOnce is not a loop: a single Next call needs no poll.
func peekOnce(it iter) bool {
	_, ok := it.Next()
	return ok
}

// closureScan: the Next sits inside a closure, so the surrounding loop is
// not the driver — the closure's caller is. Not flagged.
func closureScan(it iter) func() bool {
	var step func() bool
	for i := 0; i < 1; i++ {
		step = func() bool { _, ok := it.Next(); return ok }
	}
	return step
}
