package main

// serve_point and serve_churn: closed-loop HTTP clients against an
// in-process corald (serve.New(...).Handler()) on a loopback listener.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"

	"coral"
	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/serve"
	"coral/internal/term"
	gen "coral/internal/workload"
)

const (
	sQuery uint8 = iota
	sLoad
	sOpen
	sClose
)

// serveOp is one scheduled HTTP request.
type serveOp struct {
	kind      uint8
	text      string   // query text, or the program text of a load
	inSession bool     // evaluate in the client's open snapshot session
	want      []string // queries: expected rows, rendered and sorted
	tcNode    int      // tc queries: the bound constant; -1 otherwise
	shadow    string   // loads: an equal-shaped batch nobody queries, for replays
}

var serveOpNames = [...]string{sQuery: "query", sLoad: "load", sOpen: "open", sClose: "close"}

type serveWorkload struct {
	program string // edge facts + the tc module, consulted at set-up
	nodes   int    // core nodes are [0, nodes); loads add ids from there up
	edges   [][]int
	sched   [][]serveOp
	warm    []int
	digest  string
	// replies holds each response until it is checked. It belongs to the
	// harness and is allocated once here, not per set-up, so it never
	// counts as the program's live heap.
	replies [][]reply
}

// serveClients is min(2, nproc): corald's callers are programs that wait
// for their reply, and the box has two cores.
const serveClients = 2

// compNodes and compOffsets shape every component of the served graph: the
// circulant graph on compNodes nodes with an edge from node i to i+1 and to
// i+2 (mod compNodes). Every node of a circulant graph sees the same graph,
// so tc(c, X) does identical work whichever c a seed makes popular; in a
// sparse random graph the few long chains land on hot keys for some seeds
// and not for others, and throughput then varies by a sixth between seeds.
const compNodes = 4

var compOffsets = [...]int{1, 2}

// component returns the edges of one component over the given node ids.
func component(ids []int) (rows [][]int) {
	for i := range ids {
		for _, d := range compOffsets {
			rows = append(rows, []int{ids[i], ids[(i+d)%len(ids)]})
		}
	}
	return rows
}

// freshIDs are the ids [first, first+compNodes).
func freshIDs(first int) []int {
	ids := make([]int, compNodes)
	for i := range ids {
		ids[i] = first + i
	}
	return ids
}

// coreGraph generates the edge/2 graph both serve workloads query: disjoint
// components over a seeded shuffle of the node ids, listed in seeded order.
// Reachable sets are small, so the fixed cost of a request (parse, View,
// magic seed, render, HTTP) outweighs its fixpoint.
func coreGraph(seed int64, sz sizes) (text string, edges [][]int, g graph) {
	r := newRand(seed, "serve-graph")
	ids := r.Perm(sz.serveNodes / compNodes * compNodes)
	for first := 0; first < len(ids); first += compNodes {
		edges = append(edges, component(ids[first:first+compNodes])...)
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return factText("edge", edges), edges, newGraph(edges)
}

func rowsOfInts(v []int) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = strconv.Itoa(x)
	}
	sort.Strings(out)
	return out
}

func tcOp(g graph, c int) serveOp {
	return serveOp{kind: sQuery, text: fmt.Sprintf("tc(%d, X)", c), want: rowsOfInts(g.reach(c)), tcNode: c}
}

func edgeOp(g graph, c int) serveOp {
	return serveOp{kind: sQuery, text: fmt.Sprintf("edge(%d, X)", c), want: rowsOfInts(g.succ(c)), tcNode: -1}
}

func hopOp(g graph, c int) serveOp {
	pairs := g.twoHop(c)
	want := make([]string, len(pairs))
	for i, p := range pairs {
		want[i] = fmt.Sprintf("%d,%d", p[0], p[1])
	}
	sort.Strings(want)
	return serveOp{kind: sQuery, text: fmt.Sprintf("edge(%d, Y), edge(Y, Z)", c), want: want, tcNode: -1}
}

func (w *serveWorkload) finish(facts string) {
	// The program declares the index its queries need: sessions evaluate
	// read-only over the shared relations and never create one themselves.
	w.replies = make([][]reply, len(w.sched))
	for c := range w.sched {
		w.replies[c] = make([]reply, len(w.sched[c]))
	}
	w.program = facts + "@make_index edge(X, Y) (X).\n" + gen.TCModule("")
	w.digest = hashOf(func(h io.Writer) {
		io.WriteString(h, w.program)
		for _, ops := range w.sched {
			for i := range ops {
				fmt.Fprintf(h, "%d %v %s\n", ops[i].kind, ops[i].inSession, ops[i].text)
			}
		}
	})
}

// newServePoint: 70 % tc(c, X), 20 % edge(c, X), 10 % two-hop join, c
// Zipf(1.1) over nodes, dealt alternately to the two clients.
func newServePoint(seed int64, sz sizes) *serveWorkload {
	facts, edges, g := coreGraph(seed, sz)
	r := newRand(seed, "serve_point")
	node := zipfNodes(r, sz.serveNodes)
	w := &serveWorkload{nodes: sz.serveNodes, edges: edges, sched: make([][]serveOp, serveClients)}
	for i := 0; i < sz.pointOps; i++ {
		var op serveOp
		switch p := r.Intn(10); {
		case p < 7:
			op = tcOp(g, node())
		case p < 9:
			op = edgeOp(g, node())
		default:
			op = hopOp(g, node())
		}
		w.sched[i%serveClients] = append(w.sched[i%serveClients], op)
	}
	for c := range w.sched {
		w.warm = append(w.warm, len(w.sched[c])/20)
	}
	w.finish(facts)
	return w
}

const (
	churnSessionQueries = 50 // queries per snapshot session of client A
	churnLoadEvery      = 10 // client B loads on every 10th operation
	shadowBase          = 1 << 30
)

// newServeChurn: client A cycles snapshot sessions over core-node queries;
// client B queries live and, on every tenth operation, loads a fresh
// component and then reads it back. Loads touch only new components, so
// core answers never change and per-query work stays stationary.
func newServeChurn(seed int64, sz sizes) *serveWorkload {
	facts, edges, g := coreGraph(seed, sz)
	r := newRand(seed, "serve_churn")
	node := zipfNodes(r, sz.serveNodes)
	coreOp := func() serveOp {
		if r.Intn(10) < 7 {
			return tcOp(g, node())
		}
		return edgeOp(g, node())
	}
	w := &serveWorkload{nodes: sz.serveNodes, edges: edges, sched: make([][]serveOp, serveClients)}
	for s := 0; s < sz.churnSessions; s++ {
		w.sched[0] = append(w.sched[0], serveOp{kind: sOpen, tcNode: -1})
		for q := 0; q < churnSessionQueries; q++ {
			op := coreOp()
			op.inSession = true
			w.sched[0] = append(w.sched[0], op)
		}
		w.sched[0] = append(w.sched[0], serveOp{kind: sClose, tcNode: -1})
	}
	next := sz.serveNodes
	var comp graph
	var compFirst int
	for i := 0; i < sz.churnLiveOps; i++ {
		switch k := i % churnLoadEvery; {
		case k == 0:
			rows := component(freshIDs(next))
			shadow := component(freshIDs(next + shadowBase))
			comp, compFirst = newGraph(rows), next
			next += compNodes
			w.sched[1] = append(w.sched[1], serveOp{kind: sLoad, tcNode: -1,
				text: factText("edge", rows), shadow: factText("edge", shadow)})
		case k <= 3:
			// Read-your-writes: the component loaded a moment ago.
			w.sched[1] = append(w.sched[1], tcOp(comp, compFirst+r.Intn(compNodes)))
		default:
			w.sched[1] = append(w.sched[1], coreOp())
		}
	}
	// Warm-up ends on a session boundary for A and a load boundary for B.
	w.warm = []int{
		(sz.churnSessions + 19) / 20 * (churnSessionQueries + 2),
		(sz.churnLiveOps/20 + churnLoadEvery - 1) / churnLoadEvery * churnLoadEvery,
	}
	w.finish(facts)
	return w
}

func (w *serveWorkload) hash() string { return w.digest }

func (w *serveWorkload) ops() (total, warm []int) {
	for c := range w.sched {
		total = append(total, len(w.sched[c]))
	}
	return total, w.warm
}

func (w *serveWorkload) inlineCheck() bool { return false }

// reply is what a client keeps of one response until it is checked.
type reply struct {
	status int
	body   []byte
}

type serveInst struct {
	w       *serveWorkload
	sys     *coral.System
	handler http.Handler
	hs      *http.Server
	served  chan error
	client  *http.Client
	base    string
	sess    [serveClients]string
	// Query replies checked so far and their total size; check releases
	// each body, so replies never count as the program's live heap.
	checked, respBytes int

	// fence keeps the harness's own direct calls into the shared system
	// (Session.Query, View.Query replays, which bypass the server's epoch
	// guard) apart from client B's loads.
	fence sync.RWMutex
	// twin is a private copy of the system for engine.eval replays:
	// MeasureCall evaluates as the single-caller path does and may build
	// indexes, which the served system's concurrent readers must not see.
	twin   *coral.System
	twinMu sync.Mutex
}

func (w *serveWorkload) setUp(traced bool) (instance, error) {
	in := &serveInst{w: w, sys: coral.New(), served: make(chan error, 1)}
	if _, err := in.sys.Consult(w.program); err != nil {
		return nil, err
	}
	in.handler = serve.New(in.sys, serve.Options{}).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.hs = &http.Server{Handler: in.handler}
	go func() { in.served <- in.hs.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	if traced {
		in.twin = coral.New()
		if _, err := in.twin.Consult(w.program); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *serveInst) close() error {
	// The clients hang up first, so that Shutdown finds no open connection
	// to wait for.
	in.client.CloseIdleConnections()
	err := in.hs.Shutdown(context.Background())
	if serr := <-in.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

func (in *serveInst) class(c, i int) opClass {
	switch in.w.sched[c][i].kind {
	case sQuery:
		return classRead
	case sLoad:
		return classWrite
	}
	return classOther
}

func (in *serveInst) name(c, i int) string { return serveOpNames[in.w.sched[c][i].kind] }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of strings and bools always marshal
	}
	return b
}

// request builds the method, path and body of an operation.
func (in *serveInst) request(c, i int) (method, path string, body []byte) {
	op := &in.w.sched[c][i]
	switch op.kind {
	case sQuery:
		req := serve.QueryRequest{Query: op.text}
		if op.inSession {
			req.Session = in.sess[c]
		}
		return http.MethodPost, "/query", mustJSON(req)
	case sLoad:
		return http.MethodPost, "/load", mustJSON(serve.LoadRequest{Program: op.text})
	case sOpen:
		return http.MethodPost, "/session", mustJSON(serve.SessionRequest{Snapshot: true})
	}
	return http.MethodDelete, "/session/" + in.sess[c], nil
}

func (in *serveInst) exec(c, i int) error {
	op := &in.w.sched[c][i]
	method, path, body := in.request(c, i)
	if op.kind == sLoad {
		in.fence.Lock()
		defer in.fence.Unlock()
	}
	req, err := http.NewRequest(method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	in.w.replies[c][i] = reply{resp.StatusCode, data}
	if op.kind == sOpen {
		var sr serve.SessionResponse
		if err := json.Unmarshal(data, &sr); err != nil || sr.Session == "" {
			return fmt.Errorf("session open: status %d, body %q", resp.StatusCode, data)
		}
		in.sess[c] = sr.Session
	}
	return nil
}

func (in *serveInst) check(c, i int) bool {
	op := &in.w.sched[c][i]
	rep := in.w.replies[c][i]
	in.w.replies[c][i].body = nil
	if rep.status != http.StatusOK {
		return false
	}
	if op.kind != sQuery {
		return true
	}
	in.checked++
	in.respBytes += len(rep.body)
	return sameRows(rep.body, op.want)
}

// sameRows decodes a /query reply and compares its tuples with the
// expected rows, order-independently; a repeated tuple is a wrong answer.
func sameRows(body []byte, want []string) bool {
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || len(qr.Tuples) != len(want) {
		return false
	}
	got := make([]string, len(qr.Tuples))
	for i, row := range qr.Tuples {
		got[i] = strings.Join(row, ",")
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// direct serves one request on the handler without the network.
func (in *serveInst) direct(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	in.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func (in *serveInst) replay(tr *tracer, c, i, parent int, sampled bool) {
	op := &in.w.sched[c][i]
	switch op.kind {
	case sLoad:
		// The twin follows every load, sampled or not.
		in.twinMu.Lock()
		_, err := in.twin.Consult(op.text)
		in.twinMu.Unlock()
		if err != nil {
			panic("bench: twin load: " + err.Error()) // the same text just loaded on the server
		}
		if !sampled {
			return
		}
		in.fence.Lock()
		id := tr.time(parent, c, i, "serve.handler_load", func() map[string]int64 {
			in.direct(http.MethodPost, "/load", mustJSON(serve.LoadRequest{Program: op.shadow}))
			return nil
		})
		in.fence.Unlock()
		tr.time(id, c, i, "parser.parse_load", func() map[string]int64 {
			_, _ = parser.Parse(op.text) // parsed without error a moment ago
			return nil
		})
	case sOpen:
		if !sampled {
			return
		}
		var sr serve.SessionResponse
		id := tr.time(parent, c, i, "serve.session_open", func() map[string]int64 {
			rec := in.direct(http.MethodPost, "/session", mustJSON(serve.SessionRequest{Snapshot: true}))
			_ = json.Unmarshal(rec.Body.Bytes(), &sr)
			return nil
		})
		in.fence.RLock()
		tr.time(id, c, i, "engine.snapshot", func() map[string]int64 {
			in.sys.Engine().SnapshotBases()
			return nil
		})
		in.fence.RUnlock()
		tr.time(parent, c, i, "serve.session_close", func() map[string]int64 {
			in.direct(http.MethodDelete, "/session/"+sr.Session, nil)
			return nil
		})
	case sQuery:
		if sampled {
			in.replayQuery(tr, c, i, parent)
		}
	}
}

// replayQuery re-executes a query's path layer by layer: the handler
// without the network, Session.Query without the handler, then the parser
// and View.Query it is made of, and the module evaluation inside that.
func (in *serveInst) replayQuery(tr *tracer, c, i, parent int) {
	op := &in.w.sched[c][i]
	_, path, body := in.request(c, i)
	handler := tr.time(parent, c, i, "serve.handler_query", func() map[string]int64 {
		rec := in.direct(http.MethodPost, path, body)
		return map[string]int64{"resp_bytes": int64(rec.Body.Len())}
	})

	in.fence.RLock()
	se := in.sys.NewSession()
	view := in.sys.Engine().NewView(nil)
	if op.inSession {
		se = in.sys.SnapshotSession()
		view = in.sys.Engine().NewView(in.sys.Engine().SnapshotBases())
	}
	session := tr.time(handler, c, i, "coral.session_query", func() map[string]int64 {
		_, _ = se.Query(context.Background(), op.text) // errors show in the operation's own check
		return nil
	})
	var pq ast.Query
	tr.time(session, c, i, "parser.parse_query", func() map[string]int64 {
		pq, _ = parser.ParseQuery(op.text)
		return nil
	})
	vq := tr.time(session, c, i, "engine.view_query", func() map[string]int64 {
		_, _, st, _ := view.Query(pq.Body)
		return statCounts(st)
	})
	in.fence.RUnlock()

	if op.tcNode >= 0 {
		in.twinMu.Lock()
		args := []term.Term{term.Int(int64(op.tcNode)), term.NewVar("X")}
		tr.time(vq, c, i, "engine.eval", func() map[string]int64 {
			st, _ := in.twin.Engine().MeasureCall(ast.PredKey{Name: "tc", Arity: 2}, args)
			return statCounts(st)
		})
		in.twinMu.Unlock()
	}
}

func (w *serveWorkload) probes(inst instance, untraced *pass, lm layerMetrics) error {
	in := inst.(*serveInst)
	lm["serve.http_p99_ms"] = percentile(untraced.lat[classRead], 99)
	lm["serve.write_p50_ms"] = percentile(untraced.lat[classWrite], 50)

	lm["serve.resp_bytes_per_op"] = ratio(float64(in.respBytes), float64(in.checked))
	var st serve.StatsResponse
	if err := json.Unmarshal(in.direct(http.MethodGet, "/stats", nil).Body.Bytes(), &st); err != nil {
		return err
	}
	lm["serve.stats_errors"] = float64(st.Errors)

	pi := probeInput{
		program: w.program,
		forms:   []form{{"tc", "tc", 2, "bf"}},
		tuples:  intTuples(w.edges, 20000),
	}
	for c := range w.sched {
		for i := range w.sched[c] {
			op := &w.sched[c][i]
			if op.kind == sLoad && pi.loadText == "" {
				pi.loadText = op.text
			}
			if op.tcNode >= 0 && op.tcNode < w.nodes && i%sampleEvery == 0 && len(pi.calls) < 400 {
				pi.calls = append(pi.calls, call{"tc", "tc", 2, map[int]int{0: op.tcNode}})
			}
		}
	}
	return lm.probeLayers(pi)
}
