package engine

import (
	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// Ordered Search (paper §5.4.1; [23]) orders the use of generated subgoals:
// newly derived magic facts are "hidden" in a context instead of being made
// available immediately. The context makes one subgoal available at a time,
// most recent first, so the order resembles top-down evaluation; a subgoal
// is marked done — enabling negation and aggregation that depend on its
// completion — only when all answers to it have been generated.
//
// Mechanics: the context is a stack of nodes, each holding one or more
// subgoals (magic facts). Deriving a magic fact that is already in the
// context merges every node from its node to the top into one: under the
// stack discipline those nodes can no longer complete independently.
// A node is popped when evaluation is quiescent and all its subgoals have
// been made available.
//
// Done emission inside a popped node is ordered by the recorded
// caller→callee edges (plain magic keeps the calling subgoal in every
// rewritten rule, so edges are exact): callees' done facts come first, with
// a fixpoint run between groups, so a subgoal's negation is evaluated only
// after the subgoals it calls have settled. Mutually recursive subgoals
// (one strongly connected group) emit together — such programs are not
// left-to-right modularly stratified and get no guarantee, as in CORAL.

// subgoal identifies one magic fact.
type subgoal struct {
	pred      ast.PredKey
	fact      Fact
	available bool
	// calls lists the subgoals this subgoal's rules generated.
	calls []*subgoal
}

type osNode struct {
	goals []*subgoal
	// doneGroups, once the node is being retired, holds the remaining
	// groups of subgoals whose done facts are emitted one group per
	// quiescence (callees first).
	doneGroups [][]*subgoal
	retiring   bool
}

type osContext struct {
	me    *matEval
	nodes []*osNode
	byKey map[uint64][]*subgoal
	home  map[*subgoal]*osNode
}

func newOSContext(me *matEval) *osContext {
	return &osContext{
		me:    me,
		byKey: make(map[uint64][]*subgoal),
		home:  make(map[*subgoal]*osNode),
	}
}

func subgoalHash(pred ast.PredKey, f Fact) uint64 {
	h := term.HashArgs(f.Args)
	for i := 0; i < len(pred.Name); i++ {
		h = h*1099511628211 ^ uint64(pred.Name[i])
	}
	return h ^ uint64(pred.Arity)
}

// find returns the context entry for (pred, f) if present (available or
// pending; popped subgoals are forgotten).
func (c *osContext) find(pred ast.PredKey, f Fact) *subgoal {
	for _, sg := range c.byKey[subgoalHash(pred, f)] {
		if sg.pred == pred && sg.fact.NVars == f.NVars && term.EqualArgs(sg.fact.Args, f.Args) {
			return sg
		}
	}
	return nil
}

// offer handles a newly derived magic fact: ignore if already available in
// its relation; merge if already pending in the context; otherwise push a
// new node. caller (nil for the query seed) records the dependency edge.
func (c *osContext) offer(pred ast.PredKey, f Fact, caller *subgoal) {
	if sg := c.find(pred, f); sg != nil {
		if caller != nil {
			caller.calls = append(caller.calls, sg)
		}
		c.mergeFrom(sg)
		return
	}
	rel := c.me.st.rel(pred)
	if relContains(rel, f) {
		return // already available and popped
	}
	sg := &subgoal{pred: pred, fact: f}
	if caller != nil {
		caller.calls = append(caller.calls, sg)
	}
	node := &osNode{goals: []*subgoal{sg}}
	c.nodes = append(c.nodes, node)
	h := subgoalHash(pred, f)
	c.byKey[h] = append(c.byKey[h], sg)
	c.home[sg] = node
}

// relContains checks for a variant of f in rel.
func relContains(rel *relation.HashRelation, f Fact) bool {
	it := rel.Lookup(f.Args, term.NewEnv(f.NVars))
	// lint:allow scanloop — variant check against one subgoal's stored
	// answers; bounded by that relation's size.
	for {
		g, ok := it.Next()
		if !ok {
			return false
		}
		if g.NVars == f.NVars && term.EqualArgs(g.Args, f.Args) {
			return true
		}
	}
}

// mergeFrom collapses every node from sg's node through the top into one:
// the rederived subgoal now depends on subgoals pushed above it, so under
// the stack discipline the whole group completes together.
func (c *osContext) mergeFrom(sg *subgoal) {
	node := c.home[sg]
	idx := -1
	for i, n := range c.nodes {
		if n == node {
			idx = i
			break
		}
	}
	if idx < 0 || idx == len(c.nodes)-1 {
		return // already top (or vanished): nothing to merge
	}
	target := c.nodes[idx]
	for _, n := range c.nodes[idx+1:] {
		target.goals = append(target.goals, n.goals...)
		for _, g := range n.goals {
			c.home[g] = target
		}
	}
	c.nodes = c.nodes[:idx+1]
	// A retirement in progress restarts: the node just absorbed new goals,
	// so its done order must be recomputed once they are available.
	// Already-emitted done facts simply re-emit as duplicates.
	if target.retiring {
		target.retiring = false
		target.doneGroups = nil
	}
}

// osStep performs one unit of Ordered Search work. The overall loop:
// semi-naive passes to quiescence; then aggregate rules; then one context
// action — make the next subgoal of the top node available, emit the next
// done group of a retiring top node, or pop it; finished when the context
// empties.
func (me *matEval) osStep() {
	rs := me.sched() // the single stratum of an Ordered Search program
	if !me.initialized {
		me.initialized = true
		me.initStratum(rs)
		return
	}
	grew := me.bsnIteration(rs)
	me.Iterations++
	if grew {
		return
	}
	// Quiescent: aggregate rules next (their done guards gate groups).
	rs.snapshot()
	for _, c := range rs.st.AggRules {
		if err := me.evalAggRule(c); err != nil {
			me.fail(err)
			return
		}
	}
	if rs.grew() {
		return
	}
	ctx := me.ctx
	for len(ctx.nodes) > 0 {
		top := ctx.nodes[len(ctx.nodes)-1]
		if !top.retiring {
			if sg := top.nextUnavailable(); sg != nil {
				sg.available = true
				if me.st.rel(sg.pred).Insert(sg.fact) {
					// Magic facts bypass me.insert when offered to the
					// context (availability is deferred); charge the fact
					// budget when one actually becomes available.
					if err := me.guard.addFact(); err != nil {
						me.fail(err)
					}
				}
				return
			}
			top.retiring = true
			top.doneGroups = doneOrder(top.goals)
		}
		for len(top.doneGroups) > 0 {
			group := top.doneGroups[0]
			top.doneGroups = top.doneGroups[1:]
			if me.emitDone(group) {
				return // listeners exist: run the fixpoint before the next group
			}
		}
		ctx.pop(top)
	}
	me.finished = true
}

func (n *osNode) nextUnavailable() *subgoal {
	for _, g := range n.goals {
		if !g.available {
			return g
		}
	}
	return nil
}

// doneOrder groups a node's subgoals into strongly connected components of
// the call graph restricted to the node, in callees-first topological
// order: a subgoal's done is emitted only after everything it calls inside
// the node has settled.
func doneOrder(goals []*subgoal) [][]*subgoal {
	inNode := make(map[*subgoal]bool, len(goals))
	for _, g := range goals {
		inNode[g] = true
	}
	// Tarjan over the node-restricted call graph; emission order is the
	// components' completion order (which is callees-first).
	index := make(map[*subgoal]int)
	low := make(map[*subgoal]int)
	onStack := make(map[*subgoal]bool)
	var stack []*subgoal
	var groups [][]*subgoal
	next := 0
	var connect func(v *subgoal)
	connect = func(v *subgoal) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range v.calls {
			if !inNode[w] {
				continue
			}
			if _, seen := index[w]; !seen {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*subgoal
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			groups = append(groups, comp)
		}
	}
	for _, g := range goals {
		if _, seen := index[g]; !seen {
			connect(g)
		}
	}
	return groups
}

func (c *osContext) pop(top *osNode) {
	c.nodes = c.nodes[:len(c.nodes)-1]
	for _, g := range top.goals {
		h := subgoalHash(g.pred, g.fact)
		list := c.byKey[h]
		for i, cand := range list {
			if cand == g {
				c.byKey[h] = append(list[:i], list[i+1:]...)
				break
			}
		}
		delete(c.home, g)
	}
}

// emitDone asserts done facts for a group of subgoals; it reports whether
// any done relation grew (i.e. some rule could observe the change).
func (me *matEval) emitDone(group []*subgoal) bool {
	grew := false
	for _, g := range group {
		answer, ok := me.prog.AnswerOf[g.pred]
		if !ok {
			continue
		}
		done, tracked := me.prog.DonePreds[answer]
		if !tracked {
			continue
		}
		if me.st.rel(done).Insert(g.fact) {
			grew = true
		}
	}
	return grew
}
