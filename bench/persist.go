package main

// persist_mixed: lookups, inserts, membership probes and a rule over a
// persistent relation many times larger than its buffer pool.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"coral"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/storage"
	"coral/internal/term"
)

const (
	pLookup uint8 = iota // pedge(a, Y): indexed on column 0
	pInsert              // insert pedge(a, b); db.Flush() every flushEvery inserts
	pProbe               // pedge(a, b): both columns bound
	pHop                 // hop2(a, Z) :- pedge(a, Y), pedge(Y, Z)
)

var persistOpNames = [...]string{pLookup: "lookup", pInsert: "insert", pProbe: "probe", pHop: "hop2"}

// flushEvery is the stated flush policy: dirty pages and the catalog are
// written every 64 inserts, and the insert that triggers it pays for it.
const flushEvery = 64

const valuesPerKey = 4

const hopModule = `
module hop.
export hop2(bf).
hop2(X, Z) :- pedge(X, Y), pedge(Y, Z).
end_module.
`

type persistOp struct {
	kind uint8
	a, b int32
}

type persistWorkload struct {
	sz      sizes
	keys    int           // bulk-loaded keys are [0, keys), inserted ones [keys, 2·keys), shadows above
	facts   [][2]int      // bulk load, in order
	base    map[int][]int // the model of the bulk load, shared by set-ups
	sched   []persistOp
	warmOps int
	digest  string
	dir     string // set-ups create their database files here
	serial  int
}

// newPersistMixed: 69 % indexed lookups, 20 % inserts, 10 % membership
// probes (half of them present), 1 % two-hop rule queries. A rule query
// costs twenty lookups' time in the evaluator's fixed cost alone; at 1 % of
// the operations it takes a sixth of the time and storage still does most
// of the work, which is what this workload is for.
//
// The bulk load puts exactly valuesPerKey values under each key of
// [0, keys), in shuffled order: were the count left to chance, the few
// popular keys would have two values under one seed and eight under the
// next, and throughput would follow. Reads draw their key Zipf(1.1) from
// that domain. Inserts go under
// uniformly drawn keys of [keys, 2·keys), so the answers to the popular
// lookups stay the same size all run long while the trees and the heap
// grow; one lookup in ten reads an insert-domain key back.
func newPersistMixed(seed int64, sz sizes, dir string) *persistWorkload {
	keys := sz.persistFacts / valuesPerKey
	w := &persistWorkload{sz: sz, keys: keys, warmOps: sz.persistOps / 20, dir: dir}
	r := newRand(seed, "persist_mixed")
	for k := 0; k < keys; k++ {
		for first := len(w.facts); len(w.facts) < first+valuesPerKey; {
			f := [2]int{k, r.Intn(keys)}
			if !slices.Contains(w.facts[first:], f) {
				w.facts = append(w.facts, f)
			}
		}
	}
	r.Shuffle(len(w.facts), func(i, j int) { w.facts[i], w.facts[j] = w.facts[j], w.facts[i] })
	w.base = newPairBase(w.facts)
	key := zipfNodes(r, keys)
	for i := 0; i < sz.persistOps; i++ {
		op := persistOp{a: int32(key())}
		switch p := r.Intn(100); {
		case p < 69:
			op.kind = pLookup
			if p%10 == 0 {
				op.a = int32(keys + r.Intn(keys))
			}
		case p < 89:
			op.kind, op.a, op.b = pInsert, int32(keys+r.Intn(keys)), int32(r.Intn(keys))
		case p < 99:
			op.kind = pProbe
			if f := w.facts[r.Intn(len(w.facts))]; p%2 == 0 {
				op.a, op.b = int32(f[0]), int32(f[1])
			} else {
				op.b = int32(keys + r.Intn(keys)) // no fact has such a value
			}
		default:
			op.kind = pHop
		}
		w.sched = append(w.sched, op)
	}
	w.digest = hashOf(func(h io.Writer) {
		for _, f := range w.facts {
			fmt.Fprintln(h, f[0], f[1])
		}
		for _, op := range w.sched {
			fmt.Fprintln(h, op.kind, op.a, op.b)
		}
	})
	return w
}

func (w *persistWorkload) hash() string { return w.digest }

func (w *persistWorkload) ops() (total, warm []int) { return []int{len(w.sched)}, []int{w.warmOps} }

func (w *persistWorkload) inlineCheck() bool { return true }

type persistInst struct {
	w     *persistWorkload
	path  string
	sys   *coral.System
	db    *storage.DB
	rel   *coral.Relation
	prel  *storage.PersistentRelation
	model *pairModel

	inserts int
	// What the last operation returned, for check.
	rows     []coral.Tuple
	inserted bool
	vals     []int // reused by check
	want     []int // reused by check
}

// setUp opens a fresh database file, bulk-loads the facts, builds the
// column-0 B+tree, flushes, and installs the rule module.
func (w *persistWorkload) setUp(bool) (instance, error) {
	w.serial++
	in := &persistInst{w: w, path: filepath.Join(w.dir, fmt.Sprintf("persist-%d.cdb", w.serial)),
		sys: coral.New(), model: &pairModel{base: w.base, added: map[int][]int{}}}
	if err := in.sys.AttachStorage(in.path, w.sz.persistFrames); err != nil {
		return nil, err
	}
	var err error
	if in.rel, err = in.sys.PersistentRelation("pedge", 2); err != nil {
		return nil, err
	}
	for _, f := range w.facts {
		in.rel.Insert(coral.Int(int64(f[0])), coral.Int(int64(f[1])))
	}
	if err := in.sys.CreatePersistentIndex("pedge", 2, 0); err != nil {
		return nil, err
	}
	in.db, _ = in.sys.Storage()
	if err := in.db.Flush(); err != nil {
		return nil, err
	}
	if in.prel, err = in.db.Relation("pedge", 2); err != nil {
		return nil, err
	}
	if _, err := in.sys.Consult(hopModule); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *persistInst) close() error {
	err := in.sys.Close()
	if rerr := os.Remove(in.path); err == nil {
		err = rerr
	}
	return err
}

func (in *persistInst) class(_, i int) opClass {
	if in.w.sched[i].kind == pInsert {
		return classWrite
	}
	return classRead
}

func (in *persistInst) name(_, i int) string { return persistOpNames[in.w.sched[i].kind] }

func (in *persistInst) exec(_, i int) (err error) {
	op := in.w.sched[i]
	a, b := coral.Int(int64(op.a)), coral.Int(int64(op.b))
	switch op.kind {
	case pLookup:
		in.rows, err = in.rel.Lookup(a, coral.Var("Y")).All()
	case pProbe:
		in.rows, err = in.rel.Lookup(a, b).All()
	case pInsert:
		in.inserted = in.rel.Insert(a, b)
		if in.inserts++; in.inserts%flushEvery == 0 {
			err = in.db.Flush()
		}
	case pHop:
		var ans *coral.Answers
		if ans, err = in.sys.Query(fmt.Sprintf("hop2(%d, Z)", op.a)); err == nil {
			in.rows = ans.Tuples
		}
	}
	return err
}

// column reads column k of the last rows into the reused buffer.
func (in *persistInst) column(k int) ([]int, bool) {
	in.vals = in.vals[:0]
	for _, t := range in.rows {
		v, ok := t[k].(term.Int)
		if !ok {
			return nil, false
		}
		in.vals = append(in.vals, int(v))
	}
	return in.vals, true
}

func (in *persistInst) check(_, i int) bool {
	defer func() { in.rows = nil }() // the answer is the harness's, not live heap
	op := in.w.sched[i]
	a, b := int(op.a), int(op.b)
	switch op.kind {
	case pLookup:
		got, ok := in.column(1)
		in.want = in.model.values(a, in.want[:0])
		return ok && sameSet(got, in.want)
	case pProbe:
		want := 0
		if in.model.contains(a, b) {
			want = 1
		}
		return len(in.rows) == want
	case pInsert:
		return in.inserted == in.model.insert(a, b)
	}
	got, ok := in.column(0)
	return ok && sameSet(got, in.model.hop2(a))
}

// poolDelta runs f and returns the buffer pool's count deltas.
func (in *persistInst) poolDelta(f func()) map[string]int64 {
	s0 := in.db.Stats()
	f()
	s1 := in.db.Stats()
	return map[string]int64{
		"page_reads": int64(s1.PageReads - s0.PageReads), "page_writes": int64(s1.Writes - s0.Writes),
		"evictions": int64(s1.Evictions - s0.Evictions), "hits": int64(s1.Hits - s0.Hits),
		"misses": int64(s1.Misses - s0.Misses),
	}
}

func drain(it relation.Iterator) (ys []term.Term) {
	for {
		f, ok := it.Next()
		if !ok {
			return ys
		}
		ys = append(ys, f.Args[1])
	}
}

// later returns the next operation of the same kind after i (i's own when
// there is none).
func (w *persistWorkload) later(i int) persistOp {
	for j := i + 1; j < len(w.sched) && j < i+1000; j++ {
		if w.sched[j].kind == w.sched[i].kind {
			return w.sched[j]
		}
	}
	return w.sched[i]
}

// replay times the storage calls an operation makes, directly on the
// PersistentRelation underneath the coral.Relation handle the operation
// used. Repeating the operation's own key would find its pages in the
// pool the operation just filled, so a read's replay uses the key of the
// next scheduled read of its kind — drawn from the same distribution and
// not yet requested. An insert cannot be repeated at all; its replay
// inserts a shadow fact under a key no operation reads.
func (in *persistInst) replay(tr *tracer, c, i, parent int, sampled bool) {
	if !sampled {
		return
	}
	op := in.w.later(i)
	a, b := term.Int(int64(op.a)), term.Int(int64(op.b))
	lookup := func(parent int, pattern ...term.Term) (ys []term.Term) {
		resolved, slots := term.ResolveArgs(pattern, nil)
		env := term.NewEnv(slots)
		tr.time(parent, c, i, "storage.lookup", func() map[string]int64 {
			return in.poolDelta(func() { ys = drain(in.prel.Lookup(resolved, env)) })
		})
		return ys
	}
	switch op.kind {
	case pLookup:
		lookup(parent, a, term.NewVar("Y"))
	case pProbe:
		lookup(parent, a, b)
	case pInsert:
		shadow := relation.GroundFact(term.Int(int64(int(op.a)+in.w.keys)), b)
		tr.time(parent, c, i, "storage.insert", func() map[string]int64 {
			return in.poolDelta(func() { in.prel.Insert(shadow) })
		})
	case pHop:
		tr.time(parent, c, i, "parser.parse_query", func() map[string]int64 {
			_, _ = parser.ParseQuery(fmt.Sprintf("hop2(%d, Z)", op.a))
			return nil
		})
		cl := call{"hop2", "hop2", 2, map[int]int{0: int(op.a)}}
		eval := tr.time(parent, c, i, "engine.eval", func() map[string]int64 {
			st, _ := in.sys.Engine().MeasureCall(cl.key(), cl.args())
			return statCounts(st)
		})
		// The page-level requests the rule makes: one lookup for a, one
		// per Y it yields.
		for _, y := range lookup(eval, a, term.NewVar("Y")) {
			lookup(eval, y, term.NewVar("Z"))
		}
	}
}

func (w *persistWorkload) probes(inst instance, untraced *pass, lm layerMetrics) error {
	in := inst.(*persistInst)
	lm["storage.write_p50_ms"] = percentile(untraced.lat[classWrite], 50)

	// Flush with dirty pages pending, then the size on disk per live fact.
	for k := 0; k < flushEvery; k++ {
		in.prel.Insert(relation.GroundFact(term.Int(int64(3*w.keys+k)), term.Int(int64(k))))
	}
	var err error
	lm["storage.flush_ms"] = usPer(1, func() { err = in.db.Flush() }) / 1e3
	if err != nil {
		return err
	}
	fi, err := os.Stat(in.path)
	if err != nil {
		return err
	}
	lm["storage.file_bytes"] = float64(fi.Size())
	lm["storage.disk_bytes_per_fact"] = float64(fi.Size()) / float64(in.prel.Len())
	lm["storage.scan_ns_per_fact"] = nsEach(in.prel.Len(), func() {
		it := in.prel.Scan()
		for {
			if _, ok := it.Next(); !ok {
				return
			}
		}
	})

	// Re-open the existing file twice: with the workload's pool, and with
	// a pool that holds every page ("fits": frames ≥ pages).
	path := filepath.Join(w.dir, "persist-probe.cdb")
	data, err := os.ReadFile(in.path)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	defer os.Remove(path)
	var db *storage.DB
	lm["storage.open_ms"] = usPer(1, func() { db, err = storage.Open(path, w.sz.persistFrames) }) / 1e3
	if err != nil {
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	if db, err = storage.Open(path, int(fi.Size()/storage.PageSize)+1); err != nil {
		return err
	}
	defer db.Close()
	fit, err := db.Relation("pedge", 2)
	if err != nil {
		return err
	}
	resolved, slots := term.ResolveArgs([]term.Term{term.Int(0), term.NewVar("Y")}, nil)
	env := term.NewEnv(slots)
	var keys []term.Term
	for i := range w.sched {
		if w.sched[i].kind == pLookup && len(keys) < 20000 {
			keys = append(keys, term.Int(int64(w.sched[i].a)))
		}
	}
	pass := func() float64 {
		return nsEach(len(keys), func() {
			for _, k := range keys {
				resolved[0] = k
				drain(fit.Lookup(resolved, env))
			}
		}) / 1e3
	}
	pass() // fills the pool
	lm["storage.lookup_us_fit"] = pass()

	pi := probeInput{program: hopModule, forms: []form{{"hop", "hop2", 2, "bf"}}}
	rows := make([][]int, 0, 20000)
	for _, f := range w.facts[:min(len(w.facts), 20000)] {
		rows = append(rows, []int{f[0], f[1]})
	}
	pi.tuples = intTuples(rows, len(rows))
	return lm.probeLayers(pi)
}
