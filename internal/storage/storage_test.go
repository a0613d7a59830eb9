package storage

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"coral/internal/relation"
	"coral/internal/term"
)

func tmpDB(t *testing.T, frames int) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "test.cdb"), frames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestFileHeaderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.cdb")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	page[0] = 0xAB
	if err := f.WritePage(id, page[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 3 {
		t.Errorf("NumPages = %d", f2.NumPages())
	}
	var got [PageSize]byte
	if err := f2.ReadPage(id, got[:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Error("page content lost")
	}
	if err := f2.ReadPage(99, got[:]); err == nil {
		t.Error("read of unallocated page succeeded")
	}
}

func TestNotADatabaseFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Error("junk file opened as database")
	}
}

func writeJunk(path string) error {
	f, err := OpenFile(path)
	if err != nil {
		return err
	}
	// Corrupt the magic.
	var hdr [PageSize]byte
	copy(hdr[:], "NOTACODB")
	if _, err := f.b.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return f.Close()
}

func TestBufferPoolEviction(t *testing.T) {
	db := tmpDB(t, 4)
	rel, err := db.Relation("r", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Insert enough tuples to span many pages.
	for i := 0; i < 5000; i++ {
		rel.Insert(relation.GroundFact(term.Int(int64(i))))
	}
	db.ResetStats()
	n := 0
	it := rel.Scan()
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 5000 {
		t.Fatalf("scan got %d", n)
	}
	st := db.Stats()
	if st.PageReads == 0 {
		t.Error("scan with a tiny pool should read pages from disk")
	}
	// With a large pool the second scan is all hits.
	db2 := tmpDB(t, 256)
	rel2, _ := db2.Relation("r", 1)
	for i := 0; i < 5000; i++ {
		rel2.Insert(relation.GroundFact(term.Int(int64(i))))
	}
	db2.ResetStats()
	it = rel2.Scan()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if got := db2.Stats(); got.PageReads != 0 {
		t.Errorf("warm scan read %d pages", got.PageReads)
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	cases := [][]term.Term{
		{term.Int(42), term.Str("hello"), term.Atom("world")},
		{term.Int(-1), term.Float(3.25)},
		{mustBig("123456789012345678901234567890"), term.Int(0)},
		{term.Str(""), term.Atom("a")},
	}
	for _, args := range cases {
		enc, err := EncodeTuple(args)
		if err != nil {
			t.Fatalf("encode %v: %v", args, err)
		}
		dec, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", args, err)
		}
		if !term.EqualArgs(args, dec) {
			t.Errorf("round trip %v -> %v", args, dec)
		}
	}
	// Structured terms rejected.
	if _, err := EncodeTuple([]term.Term{term.NewFunctor("f", term.Int(1))}); err == nil {
		t.Error("functor accepted in persistent tuple")
	}
	if _, err := EncodeTuple([]term.Term{term.NewVar("X")}); err == nil {
		t.Error("variable accepted in persistent tuple")
	}
}

func mustBig(s string) term.Term {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bad big " + s)
	}
	return term.NewBig(v)
}

func TestKeyEncodingOrder(t *testing.T) {
	// Byte order of encoded keys must match term.Compare (numerics merged).
	vals := []term.Term{
		term.Int(-100), term.Float(-0.5), term.Int(0), term.Float(0.25),
		term.Int(1), term.Float(1.5), term.Int(2), term.Int(1000),
		term.Str("a"), term.Str("ab"), term.Str("b"),
		term.Atom("x"), term.Atom("y"),
	}
	for i := range vals {
		for j := range vals {
			ki, err := EncodeKey([]term.Term{vals[i]})
			if err != nil {
				t.Fatal(err)
			}
			kj, err := EncodeKey([]term.Term{vals[j]})
			if err != nil {
				t.Fatal(err)
			}
			want := term.Compare(vals[i], vals[j])
			got := bytes.Compare(ki, kj)
			if want < 0 && got >= 0 || want > 0 && got <= 0 {
				t.Errorf("order mismatch: %v vs %v (term %d, bytes %d)", vals[i], vals[j], want, got)
			}
		}
	}
	// Prefix property for composite keys.
	full, _ := EncodeKey([]term.Term{term.Str("ab"), term.Int(1)})
	prefix, _ := EncodeKey([]term.Term{term.Str("ab")})
	if !bytes.HasPrefix(full, prefix) {
		t.Error("composite key does not extend its prefix")
	}
	notPrefix, _ := EncodeKey([]term.Term{term.Str("abc")})
	if bytes.HasPrefix(notPrefix, prefix) {
		t.Error("longer string spuriously matches prefix")
	}
}

func TestHeapInsertScanDelete(t *testing.T) {
	db := tmpDB(t, 16)
	h, err := newHeapFile(db.pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 1000; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Insertion-ordered scan.
	scan := h.Scan()
	for i := 0; ; i++ {
		rec, rid, ok := scan.Next()
		if !ok {
			if i != 1000 {
				t.Fatalf("scan ended at %d", i)
			}
			break
		}
		if string(rec) != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("record %d out of order: %s", i, rec)
		}
		if rid != rids[i] {
			t.Fatalf("rid mismatch at %d", i)
		}
	}
	// Point get and delete.
	rec, err := h.Get(rids[500])
	if err != nil || string(rec) != "record-0500" {
		t.Fatalf("get: %s %v", rec, err)
	}
	if ok, _ := h.Delete(rids[500]); !ok {
		t.Fatal("delete failed")
	}
	if rec, _ := h.Get(rids[500]); rec != nil {
		t.Error("tombstoned record still visible")
	}
	if ok, _ := h.Delete(rids[500]); ok {
		t.Error("double delete reported success")
	}
	// Oversized record rejected.
	if _, err := h.Insert(make([]byte, PageSize)); err != ErrTupleTooLarge {
		t.Errorf("oversized insert: %v", err)
	}
}

func TestBTreeBasics(t *testing.T) {
	db := tmpDB(t, 64)
	bt, err := NewBTree(db.pool)
	if err != nil {
		t.Fatal(err)
	}
	n := 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		key, _ := EncodeKey([]term.Term{term.Int(int64(v))})
		if err := bt.Insert(key, RID{Page: PageID(v), Slot: uint16(v % 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Full in-order iteration.
	lo, _ := EncodeKey([]term.Term{term.Int(-1 << 40)})
	c, err := bt.Seek(lo)
	if err != nil {
		t.Fatal(err)
	}
	prev := []byte(nil)
	count := 0
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, k) > 0 {
			t.Fatal("keys out of order")
		}
		prev = k
		count++
	}
	if count != n {
		t.Fatalf("iterated %d keys, want %d", count, n)
	}
	// Point lookups.
	for _, v := range []int{0, 1, 2500, n - 1} {
		key, _ := EncodeKey([]term.Term{term.Int(int64(v))})
		c, _ := bt.SeekPrefix(key)
		k, rid, ok := c.Next()
		if !ok || !bytes.Equal(k, key) || rid.Page != PageID(v) {
			t.Errorf("lookup %d: ok=%v rid=%v", v, ok, rid)
		}
		if _, _, more := c.Next(); more {
			t.Errorf("lookup %d: extra entry", v)
		}
	}
	// Absent key.
	key, _ := EncodeKey([]term.Term{term.Int(99999999)})
	c2, _ := bt.SeekPrefix(key)
	if _, _, ok := c2.Next(); ok {
		t.Error("absent key found")
	}
}

func TestBTreeDuplicatesAndDelete(t *testing.T) {
	db := tmpDB(t, 64)
	bt, _ := NewBTree(db.pool)
	key, _ := EncodeKey([]term.Term{term.Atom("dup")})
	for i := 0; i < 10; i++ {
		bt.Insert(key, RID{Page: 7, Slot: uint16(i)})
	}
	c, _ := bt.SeekPrefix(key)
	got := 0
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
		got++
	}
	if got != 10 {
		t.Fatalf("duplicates: %d", got)
	}
	removed, err := bt.Delete(key, RID{Page: 7, Slot: 3})
	if err != nil || !removed {
		t.Fatalf("delete: %v %v", removed, err)
	}
	if removed, _ := bt.Delete(key, RID{Page: 7, Slot: 3}); removed {
		t.Error("double delete succeeded")
	}
	c, _ = bt.SeekPrefix(key)
	got = 0
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
		got++
	}
	if got != 9 {
		t.Errorf("after delete: %d", got)
	}
}

func TestBTreeAgainstReference(t *testing.T) {
	// Property-style: random interleaved inserts across string keys must
	// agree with a sorted reference.
	db := tmpDB(t, 64)
	bt, _ := NewBTree(db.pool)
	r := rand.New(rand.NewSource(7))
	ref := map[string]int{}
	for i := 0; i < 3000; i++ {
		s := fmt.Sprintf("k%06d", r.Intn(1500))
		key, _ := EncodeKey([]term.Term{term.Str(s)})
		bt.Insert(key, RID{Page: PageID(i)})
		ref[s]++
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for s := range ref {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		key, _ := EncodeKey([]term.Term{term.Str(s)})
		c, _ := bt.SeekPrefix(key)
		n := 0
		for {
			if _, _, ok := c.Next(); !ok {
				break
			}
			n++
		}
		if n != ref[s] {
			t.Fatalf("key %s: %d entries, want %d", s, n, ref[s])
		}
	}
}

func TestPersistentRelation(t *testing.T) {
	db := tmpDB(t, 32)
	rel, err := db.Relation("emp", 3)
	if err != nil {
		t.Fatal(err)
	}
	var _ relation.Relation = rel
	for i := 0; i < 500; i++ {
		ok := rel.Insert(relation.GroundFact(
			term.Atom(fmt.Sprintf("name%d", i)),
			term.Int(int64(i%10)),
			term.Str(fmt.Sprintf("title-%d", i)),
		))
		if !ok {
			t.Fatalf("insert %d rejected", i)
		}
	}
	// Duplicate rejected via the primary index.
	if rel.Insert(relation.GroundFact(term.Atom("name3"), term.Int(3), term.Str("title-3"))) {
		t.Error("duplicate accepted")
	}
	if rel.Len() != 500 {
		t.Errorf("Len = %d", rel.Len())
	}
	// Secondary index lookup.
	if err := rel.CreateIndex(1); err != nil {
		t.Fatal(err)
	}
	it := rel.Lookup([]term.Term{term.NewVar("N"), term.Int(4), term.NewVar("T")}, nil)
	n := 0
	for {
		f, ok := it.Next()
		if !ok {
			break
		}
		if !term.Equal(f.Args[1], term.Int(4)) {
			t.Fatalf("index returned wrong fact %v", f)
		}
		n++
	}
	if n != 50 {
		t.Errorf("indexed lookup got %d", n)
	}
	// Delete.
	if removed := rel.Delete([]term.Term{term.NewVar("N"), term.Int(4), term.NewVar("T")}, nil); removed != 50 {
		t.Errorf("deleted %d", removed)
	}
	if rel.Len() != 450 {
		t.Errorf("Len after delete = %d", rel.Len())
	}
	it = rel.Lookup([]term.Term{term.NewVar("N"), term.Int(4), term.NewVar("T")}, nil)
	if _, ok := it.Next(); ok {
		t.Error("deleted facts visible through index")
	}
}

func TestPersistentRelationMarks(t *testing.T) {
	db := tmpDB(t, 32)
	rel, _ := db.Relation("p", 1)
	for i := 0; i < 10; i++ {
		rel.Insert(relation.GroundFact(term.Int(int64(i))))
	}
	m := rel.Snapshot()
	for i := 10; i < 15; i++ {
		rel.Insert(relation.GroundFact(term.Int(int64(i))))
	}
	delta := 0
	it := rel.ScanRange(m, rel.Snapshot())
	for {
		f, ok := it.Next()
		if !ok {
			break
		}
		if f.Args[0].(term.Int) < 10 {
			t.Errorf("old fact in delta: %v", f)
		}
		delta++
	}
	if delta != 5 {
		t.Errorf("delta size %d", delta)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "re.cdb")
	db, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("facts", 2)
	for i := 0; i < 300; i++ {
		rel.Insert(relation.GroundFact(term.Int(int64(i)), term.Atom("v")))
	}
	rel.CreateIndex(0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, err := db2.Relation("facts", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != 300 {
		t.Errorf("reopened Len = %d", rel2.Len())
	}
	it := rel2.Lookup([]term.Term{term.Int(123), term.NewVar("V")}, nil)
	f, ok := it.Next()
	if !ok || !term.Equal(f.Args[0], term.Int(123)) {
		t.Errorf("reopened index lookup: %v %v", f, ok)
	}
}

func TestTransactionCommitAbort(t *testing.T) {
	db := tmpDB(t, 32)
	rel, _ := db.Relation("t", 1)
	rel.Insert(relation.GroundFact(term.Int(1)))

	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rel.Insert(relation.GroundFact(term.Int(2)))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("after commit Len = %d", rel.Len())
	}

	txn, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rel.Insert(relation.GroundFact(term.Int(3)))
	rel.Insert(relation.GroundFact(term.Int(4)))
	if rel.Len() != 4 {
		t.Fatalf("mid-txn Len = %d", rel.Len())
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	rel2, _ := db.Relation("t", 1)
	if rel2.Len() != 2 {
		t.Fatalf("after abort Len = %d", rel2.Len())
	}
	n := 0
	it := rel2.Scan()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Errorf("after abort scan = %d", n)
	}
	// Aborted facts can be reinserted.
	if !rel2.Insert(relation.GroundFact(term.Int(3))) {
		t.Error("reinsert after abort rejected")
	}
}

func TestSingleTransactionAtATime(t *testing.T) {
	db := tmpDB(t, 16)
	txn, _ := db.Begin()
	if _, err := db.Begin(); err == nil {
		t.Error("second concurrent transaction allowed")
	}
	txn.Commit()
	if _, err := db.Begin(); err != nil {
		t.Errorf("transaction after commit: %v", err)
	} else {
		db.txn.Abort()
	}
}

// Differential test: a persistent relation must behave exactly like the
// in-memory hash relation over the same random operation sequence
// (inserts, duplicate inserts, deletes, indexed lookups).
func TestQuickPersistentMatchesInMemory(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := tmpDB(t, 16)
		prel, err := db.Relation(fmt.Sprintf("p%d", seed), 2)
		if err != nil {
			t.Fatal(err)
		}
		mem := relation.NewHashRelation("p", 2)
		mem.MakeIndex(0)
		prel.CreateIndex(0)
		for op := 0; op < 200; op++ {
			a := term.Int(int64(r.Intn(12)))
			b := term.Int(int64(r.Intn(12)))
			switch r.Intn(10) {
			case 0: // delete by first column
				pd := prel.Delete([]term.Term{a, term.NewVar("Y")}, nil)
				md := mem.Delete([]term.Term{a, term.NewVar("Y")}, nil)
				if pd != md {
					t.Fatalf("seed %d op %d: delete %d vs %d", seed, op, pd, md)
				}
			default:
				pi := prel.Insert(relation.GroundFact(a, b))
				mi := mem.Insert(relation.GroundFact(a, b))
				if pi != mi {
					t.Fatalf("seed %d op %d: insert(%v,%v) %v vs %v", seed, op, a, b, pi, mi)
				}
			}
			if prel.Len() != mem.Len() {
				t.Fatalf("seed %d op %d: len %d vs %d", seed, op, prel.Len(), mem.Len())
			}
		}
		// Indexed lookups agree.
		for k := 0; k < 12; k++ {
			q := []term.Term{term.Int(int64(k)), term.NewVar("Y")}
			pGot := collect(prel.Lookup(q, nil), int64(k))
			mGot := collect(mem.Lookup(q, nil), int64(k))
			if pGot != mGot {
				t.Fatalf("seed %d key %d: %d vs %d matches", seed, k, pGot, mGot)
			}
		}
	}
}

func collect(it relation.Iterator, key int64) int {
	n := 0
	for {
		f, ok := it.Next()
		if !ok {
			return n
		}
		if int64(f.Args[0].(term.Int)) == key {
			n++
		}
	}
}

// Property: the B+tree stays valid and agrees with a reference multimap
// under interleaved random inserts and deletes.
func TestQuickBTreeInterleavedOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := tmpDB(t, 64)
		bt, err := NewBTree(db.pool)
		if err != nil {
			t.Fatal(err)
		}
		type entry struct {
			k   int
			rid RID
		}
		ref := map[int][]RID{}
		var live []entry
		nextRID := uint32(1)
		for op := 0; op < 4000; op++ {
			if r.Intn(4) == 0 && len(live) > 0 {
				// Delete a random live entry.
				i := r.Intn(len(live))
				e := live[i]
				key, _ := EncodeKey([]term.Term{term.Int(int64(e.k))})
				removed, err := bt.Delete(key, e.rid)
				if err != nil || !removed {
					t.Fatalf("seed %d op %d: delete %v %v", seed, op, removed, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				rids := ref[e.k]
				for j, rd := range rids {
					if rd == e.rid {
						ref[e.k] = append(rids[:j], rids[j+1:]...)
						break
					}
				}
			} else {
				k := r.Intn(300)
				rid := RID{Page: PageID(nextRID), Slot: uint16(op % 50)}
				nextRID++
				key, _ := EncodeKey([]term.Term{term.Int(int64(k))})
				if err := bt.Insert(key, rid); err != nil {
					t.Fatal(err)
				}
				live = append(live, entry{k, rid})
				ref[k] = append(ref[k], rid)
			}
		}
		if err := bt.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k, rids := range ref {
			key, _ := EncodeKey([]term.Term{term.Int(int64(k))})
			c, _ := bt.SeekPrefix(key)
			n := 0
			for {
				if _, _, ok := c.Next(); !ok {
					break
				}
				n++
			}
			if n != len(rids) {
				t.Fatalf("seed %d key %d: %d entries, want %d", seed, k, n, len(rids))
			}
		}
	}
}
