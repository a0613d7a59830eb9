package main

// The two drivers every workload shares: the end-to-end run (tracing off)
// and the traced run that attributes time to layers by replay.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// opClass sorts operations for the latency metrics: op_p50_ms and
// op_p95_ms are taken over reads; session open/close count as operations
// but as neither.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classOther
	numClasses
)

// workload is one seeded set of inputs and reference answers. Building it
// is harness work and never timed.
type workload interface {
	// hash fingerprints the facts and the schedule the program is handed.
	hash() string
	// ops gives, per closed-loop client, the schedule length and the
	// warm-up prefix that belongs to set-up.
	ops() (total, warm []int)
	// inlineCheck says answers are checked right after each operation
	// (outside its timed interval) instead of after the timed section.
	inlineCheck() bool
	// setUp is the program's own set-up: consult, fact load, index build,
	// storage open and bulk load, server start. traced additionally
	// prepares what replays need.
	setUp(traced bool) (instance, error)
	// probes times single layers on this workload's own inputs, after the
	// traced pass; untraced is the traced run's tracing-off pass.
	probes(inst instance, untraced *pass, lm layerMetrics) error
}

// instance is one set-up of the program, ready to execute the schedule.
type instance interface {
	class(c, i int) opClass
	// name labels the operation's span ("query", "load", "tc_linear", ...).
	name(c, i int) string
	// exec performs operation i of client c; its duration is the
	// operation's latency. It keeps what check needs.
	exec(c, i int) error
	// check compares the operation's answer with the reference.
	check(c, i int) bool
	// replay runs after every operation of a traced pass; for sampled
	// operations it re-executes the operation's parts, recording a span
	// per call into a layer under parent.
	replay(tr *tracer, c, i, parent int, sampled bool)
	close() error
}

// pass is the outcome of executing a slice of the schedule.
type pass struct {
	elapsed time.Duration
	busy    []time.Duration       // per client: until its last operation completed
	lat     [numClasses][]float64 // ms
	ops     int
	failed  int
}

// sampleEvery is the traced run's sampling: one operation in eight is
// replayed part by part.
const sampleEvery = 8

// runPass executes operations [lo[c], hi[c]) of every client, one
// goroutine per client, each sending its next operation only after the
// previous one completed (closed loop). Operations that would start after
// limit are skipped, so a pathological slowdown cannot overrun the
// driver's cap; they are not counted as attempted.
//
// mem, when not nil, receives the memory statistics at the moment the last
// client finishes — before the deferred answer checks allocate.
func runPass(w workload, inst instance, lo, hi []int, tr *tracer, limit time.Duration, mem *runtime.MemStats) *pass {
	inline := w.inlineCheck()
	type clientOut struct {
		lat  [numClasses][]float64
		bad  []bool
		done int
		busy time.Duration
	}
	outs := make([]clientOut, len(lo))
	for c := range outs {
		outs[c].bad = make([]bool, hi[c]-lo[c])
		for k := range outs[c].lat {
			outs[c].lat[k] = make([]float64, 0, hi[c]-lo[c])
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lo {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for i := lo[c]; i < hi[c]; i++ {
				t0 := time.Now()
				if t0.Sub(start) > limit {
					break
				}
				err := inst.exec(c, i)
				t1 := time.Now()
				k := inst.class(c, i)
				out.lat[k] = append(out.lat[k], float64(t1.Sub(t0).Nanoseconds())/1e6)
				out.done++
				out.busy = t1.Sub(start)
				if err != nil {
					out.bad[i-lo[c]] = true
					fmt.Fprintf(os.Stderr, "bench: client %d op %d (%s): %v\n", c, i, inst.name(c, i), err)
				} else if inline && !inst.check(c, i) {
					out.bad[i-lo[c]] = true
				}
				if tr != nil {
					sampled := i%sampleEvery == 0
					id := tr.add(span{Client: c, Op: i, Name: "op:" + inst.name(c, i), Sampled: sampled}, t0, t1)
					inst.replay(tr, c, i, id, sampled)
				}
			}
		}(c)
	}
	wg.Wait()
	p := &pass{elapsed: time.Since(start)}
	if mem != nil {
		runtime.ReadMemStats(mem)
	}
	for c := range outs {
		out := &outs[c]
		if !inline {
			for i := lo[c]; i < lo[c]+out.done; i++ {
				if !out.bad[i-lo[c]] && !inst.check(c, i) {
					out.bad[i-lo[c]] = true
				}
			}
		}
		p.ops += out.done
		p.busy = append(p.busy, out.busy)
		for _, b := range out.bad {
			if b {
				p.failed++
			}
		}
		for k := range p.lat {
			p.lat[k] = append(p.lat[k], out.lat[k]...)
		}
	}
	for k := range p.lat {
		sort.Float64s(p.lat[k])
	}
	return p
}

// result is what one run of one workload reports.
type result struct {
	Hash      string             `json:"schedule_hash"`
	Ops       map[string]int     `json:"ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *result) count(p *pass) {
	r.Attempted += p.ops
	r.Failed += p.failed
	for k, name := range [numClasses]string{"read", "write", "other"} {
		r.Ops[name] += len(p.lat[k])
	}
}

// setUps is how many fresh set-ups one run performs; setup_s is their
// median and the last one serves the timed section.
const setUps = 5

// timeCap bounds a timed section at this multiple of --seconds.
const timeCap = 6

// runEndToEnd measures the end-to-end metrics of one workload with tracing
// off: setUps fresh set-ups (each including its warm-up), then the timed
// section over the rest of the fixed schedule.
func runEndToEnd(w workload, seconds float64) (*result, error) {
	total, warm := w.ops()
	zero := make([]int, len(total))
	limit := time.Duration(timeCap * seconds * float64(time.Second))
	res := &result{Hash: w.hash(), Ops: map[string]int{}, Metrics: map[string]float64{}}

	var inst instance
	var setupS []float64
	var base runtime.MemStats
	for k := 0; k < setUps; k++ {
		if k == setUps-1 {
			// What the kept set-up adds to the heap is the program's
			// resident state; the harness's own inputs and reference
			// answers are already allocated and cancel out.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&base)
		}
		t0 := time.Now()
		in, err := w.setUp(false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wp := runPass(w, in, zero, warm, nil, limit, nil)
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < setUps-1 {
			if wp.failed > 0 {
				in.close()
				return nil, fmt.Errorf("set-up %d: %d of %d warm-up operations failed", k, wp.failed, wp.ops)
			}
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", k, err)
			}
			continue
		}
		res.count(wp)
		inst = in
	}
	defer inst.close()

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := runPass(w, inst, warm, total, nil, limit, &m1)
	res.count(p)
	if p.ops == 0 || len(p.lat[classRead]) == 0 {
		return nil, fmt.Errorf("timed section executed no read operation")
	}
	ops := float64(p.ops)
	reads := p.lat[classRead]
	res.Metrics["setup_s"] = median(setupS)
	res.Metrics["ops_per_s"] = float64(p.ops-p.failed) / p.elapsed.Seconds()
	res.Metrics["op_p50_ms"] = percentile(reads, 50)
	res.Metrics["op_p95_ms"] = percentile(reads, 95)
	res.Metrics["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	res.Metrics["alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops
	res.Ops["read_samples"] = len(reads)
	for c, d := range p.busy {
		// Closed-loop clients with fixed schedules should finish together;
		// a gap means the tail of the section ran on fewer clients.
		res.Ops[fmt.Sprintf("client%d_ms", c)] = int(d.Milliseconds())
	}

	// The latency samples are the harness's; release them before taking
	// the program's live heap. Two collections, so that what finalizers
	// release (closed connections of earlier set-ups) is gone too.
	p, reads = nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	res.Metrics["live_heap_mb"] = (float64(m2.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
	return res, nil
}

// span is one timed call into a layer. Spans of one operation share Op
// and Client; Parent is the span whose interval this call is attributed
// to (0 for an operation's own span). Because the harness cannot intercept
// calls inside the program, a child is a replay of that part on the same
// input right after the operation, not a slice of the parent's interval.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Client  int              `json:"client"`
	Op      int              `json:"op"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Sampled bool             `json:"sampled,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(s span, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.StartNS = start.Sub(t.t0).Nanoseconds()
	s.EndNS = end.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// time runs f as a child span of parent and returns the new span's id; f
// may return count deltas taken at the same boundary.
func (t *tracer) time(parent, c, i int, name string, f func() map[string]int64) int {
	t0 := time.Now()
	counts := f()
	t1 := time.Now()
	return t.add(span{Parent: parent, Client: c, Op: i, Name: name, Counts: counts}, t0, t1)
}

// durations returns the ms durations of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].ms())
		}
	}
	return out
}

// byPrefix returns the ms durations of spans whose name starts with prefix.
func (t *tracer) byPrefix(prefix string, sampledOnly bool) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; strings.HasPrefix(s.Name, prefix) && (!sampledOnly || s.Sampled) {
			out = append(out, s.ms())
		}
	}
	return out
}

// countSum adds up one count over spans whose name starts with prefix.
func (t *tracer) countSum(prefix, key string) (total float64, spans int) {
	for i := range t.spans {
		if v, ok := t.spans[i].Counts[key]; ok && strings.HasPrefix(t.spans[i].Name, prefix) {
			total += float64(v)
			spans++
		}
	}
	return total, spans
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics collects per-layer values by BENCHMARK.json name.
type layerMetrics map[string]float64

// traceShare is the part of the schedule each pass of the traced run
// executes: an untraced and a traced pass over the same operations plus
// the layer probes should together take about --seconds.
const traceShare = 0.3

// runTraced produces the per-layer metrics of one workload: an untraced
// pass and a traced pass over the same prefix of the schedule (their
// throughput ratio is the tracing overhead), then probes of single layers
// on the workload's inputs. Nothing here feeds an end-to-end metric.
//
// Every listed per-layer metric is reported; one whose layer the workload
// never calls stays 0.
func runTraced(w workload, name string, seconds float64, outDir string, list []metricSpec) (*result, error) {
	total, warm := w.ops()
	zero := make([]int, len(total))
	upto := make([]int, len(total))
	for c := range total {
		upto[c] = warm[c] + int(float64(total[c]-warm[c])*traceShare)
		if upto[c] <= warm[c] {
			upto[c] = total[c]
		}
	}
	limit := time.Duration(timeCap * seconds * float64(time.Second))
	res := &result{Hash: w.hash(), Ops: map[string]int{}, Metrics: map[string]float64{}}
	lm := layerMetrics(res.Metrics)
	for _, m := range list {
		lm[m.Name] = 0
	}

	plain, err := w.setUp(false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.count(runPass(w, plain, zero, warm, nil, limit, nil))
	untraced := runPass(w, plain, warm, upto, nil, limit, nil)
	res.count(untraced)
	if err := plain.close(); err != nil {
		return nil, err
	}

	inst, err := w.setUp(true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	res.count(runPass(w, inst, zero, warm, nil, limit, nil))
	tr := &tracer{t0: time.Now()}
	traced := runPass(w, inst, warm, upto, tr, limit, nil)
	res.count(traced)

	lm["trace_overhead_ratio"] = ratio(float64(traced.ops)/traced.elapsed.Seconds(),
		float64(untraced.ops)/untraced.elapsed.Seconds())
	lm.fromSpans(tr)
	if err := w.probes(inst, untraced, lm); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	res.Ops["spans"] = len(tr.spans)
	return res, nil
}
