package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeOptions are the sizes the smoke tests run at: -scale 0.01.
func smokeOptions(t *testing.T, seed int64) options {
	return options{seed: seed, seconds: 10, scale: 0.01, repeat: 1, outDir: t.TempDir()}
}

// TestBenchmarkJSON holds BENCHMARK.json to the limits of the benchmark
// contract that can be checked without running anything.
func TestBenchmarkJSON(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, m metricSpec, bounded bool) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s metric %+v: bad or repeated name, or bad unit", kind, m)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
		}
		if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
		}
		if !bounded && m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		check("end-to-end", m, true)
	}
	for _, m := range spec.PerLayer {
		check("per-layer", m, false)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v: bad name or why", w)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestSmoke runs the whole set, traced run included, at -scale 0.01 and
// validates out/result.json against BENCHMARK.json in both directions.
func TestSmoke(t *testing.T) {
	spec := testSpec(t)
	o := smokeOptions(t, 1)
	o.trace = 1
	if err := runAll(spec, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(o.outDir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range spec.workloadNames() {
		wr := rep.Workloads[name]
		if wr == nil {
			t.Fatalf("workload %s missing from result.json", name)
		}
		if wr.Failed != 0 || wr.FailRatio != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d fail_ratio %v", name, wr.Attempted, wr.Failed, wr.FailRatio)
		}
		for kind, pair := range map[string]struct {
			list []metricSpec
			got  map[string]*series
		}{"end_to_end": {spec.EndToEnd, wr.EndToEnd}, "per_layer": {spec.PerLayer, wr.PerLayer}} {
			if len(pair.got) != len(pair.list) {
				t.Errorf("%s %s: %d metrics reported, %d listed", name, kind, len(pair.got), len(pair.list))
			}
			for _, m := range pair.list {
				s := pair.got[m.Name]
				if s == nil || s.Unit != m.Unit || len(s.Values) != 1 {
					t.Errorf("%s %s: metric %s missing, or unit or value count wrong: %+v", name, kind, m.Name, s)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			if wr.EndToEnd[m.Name].Median <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, m.Name, wr.EndToEnd[m.Name].Median)
			}
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
	if rep.Nproc == 0 || rep.GoVersion == "" || rep.GitRev == "" {
		t.Errorf("environment not recorded: %+v", rep)
	}
}

// TestSeedIsTheOnlyRandomness: the same seed gives the same inputs and the
// same counts; another seed gives other inputs.
func TestSeedIsTheOnlyRandomness(t *testing.T) {
	spec := testSpec(t)
	exact := regexp.MustCompile(`^engine\..*_per_op$|^engine\.(derivations_per_attempt|stored_per_derivation)$|^rewrite\.rules_out$|^storage\.disk_bytes_per_fact$|^term\.interned_distinct$`)
	for _, name := range spec.workloadNames() {
		a, err := measure(spec, name, smokeOptions(t, 7), true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(spec, name, smokeOptions(t, 7), true)
		if err != nil {
			t.Fatal(err)
		}
		c, err := measure(spec, name, smokeOptions(t, 8), true)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash {
			t.Errorf("%s: same seed, schedule hashes %s and %s", name, a.Hash, b.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 7 and 8 give the same schedule hash %s", name, a.Hash)
		}
		if !reflect.DeepEqual(a.Ops, b.Ops) {
			t.Errorf("%s: same seed, op counts %v and %v", name, a.Ops, b.Ops)
		}
		for _, m := range spec.PerLayer {
			if exact.MatchString(m.Name) && a.Metrics[m.Name] != b.Metrics[m.Name] {
				t.Errorf("%s: count %s does not repeat: %v then %v", name, m.Name, a.Metrics[m.Name], b.Metrics[m.Name])
			}
		}
	}
}

// TestWrongAnswerFails feeds the checker a wrong tuple: the run must count
// a failure and the driver entry must fail (a non-zero exit).
func TestWrongAnswerFails(t *testing.T) {
	spec := testSpec(t)
	o := smokeOptions(t, 1)
	w := newServePoint(o.seed, calibrated.scaled(o.seconds, o.scale))
	last := &w.sched[0][len(w.sched[0])-1]
	last.want = append([]string{"0"}, last.want...) // a tuple the program will not return
	res, err := runEndToEnd(w, o.seconds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	if ratio(float64(res.Failed), float64(res.Attempted)) <= 0 {
		t.Fatal("fail ratio is not positive")
	}
	var out bytes.Buffer
	if err := emit(&out, spec.EndToEnd, "serve_point", res); err == nil {
		t.Fatal("emit accepted a run with a failed operation")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result line does not say correct:false: %s", out.String())
	}
}

func TestCheckers(t *testing.T) {
	body := []byte(`{"vars":["X"],"tuples":[["2"],["1"]],"stats":{},"elapsed_us":1}`)
	if !sameRows(body, []string{"1", "2"}) {
		t.Error("sameRows rejects the right rows in another order")
	}
	if sameRows(body, []string{"1", "3"}) || sameRows(body, []string{"1"}) ||
		sameRows([]byte(`{"tuples":[["1"],["1"]]}`), []string{"1", "2"}) {
		t.Error("sameRows accepts wrong, missing or repeated rows")
	}
	s := newDenseSet(4)
	s.expect(1)
	s.expect(3)
	for _, tc := range []struct {
		keys []int
		ok   bool
	}{{[]int{3, 1}, true}, {[]int{1}, false}, {[]int{1, 3, 3}, false}, {[]int{1, 2, 3}, false}, {[]int{1, 7}, false}} {
		s.begin()
		for _, k := range tc.keys {
			s.add(k)
		}
		if s.ok() != tc.ok {
			t.Errorf("denseSet %v: ok = %v", tc.keys, s.ok())
		}
	}
	if !sameSet([]int{2, 1}, []int{1, 2}) || sameSet([]int{1, 1}, []int{1, 2}) || sameSet([]int{1}, []int{1, 2}) {
		t.Error("sameSet")
	}
}

// TestReference checks the reference searches on graphs small enough to
// work out by hand.
func TestReference(t *testing.T) {
	g := newGraph([][]int{{0, 1}, {1, 2}, {2, 1}, {3, 0}})
	if got := g.reach(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("reach(0) = %v", got)
	}
	if got := g.reach(1); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("reach(1) = %v: a node on a cycle reaches itself", got)
	}
	if got := g.twoHop(3); !reflect.DeepEqual(got, [][2]int{{0, 1}}) {
		t.Errorf("twoHop(3) = %v", got)
	}
	wg := newWGraph([][]int{{0, 1, 5}, {0, 2, 1}, {2, 1, 2}, {1, 0, 4}})
	dist, pred := wg.shortest(0)
	if !reflect.DeepEqual(dist, map[int]int{1: 3, 2: 1, 0: 7}) || pred[1] != 2 || pred[0] != 1 {
		t.Errorf("shortest(0) = %v, pred %v", dist, pred)
	}
	if !wg.validPath(0, 1, [][2]int{{0, 2}, {2, 1}}, 3) || wg.validPath(0, 1, [][2]int{{0, 1}}, 3) ||
		wg.validPath(0, 1, [][2]int{{0, 2}, {1, 0}}, 5) || wg.validPath(0, 1, nil, 0) {
		t.Error("validPath")
	}
	costs := wg.boundedCosts(3, 6)
	want := map[[3]int]bool{
		{0, 1, 5}: true, {0, 2, 1}: true, {0, 1, 3}: true, // direct, direct, via 2
		{2, 1, 2}: true, {2, 0, 6}: false, // 2→1→0 costs 6: not below the limit
		{1, 0, 4}: true, {1, 2, 5}: true, // 1→0→2
	}
	for k, in := range want {
		if costs[k] != in {
			t.Errorf("boundedCosts[%v] = %v, want %v", k, costs[k], in)
		}
	}
	m := &pairModel{base: newPairBase([][2]int{{1, 2}, {1, 2}, {2, 3}}), added: map[int][]int{}}
	if m.insert(1, 2) || !m.insert(2, 4) || m.insert(2, 4) || !m.contains(2, 4) || m.contains(3, 1) {
		t.Error("pairModel insert/contains")
	}
	if got := m.hop2(1); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("hop2(1) = %v", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || q3 != 5 {
		t.Errorf("quartiles(5,1,3) = %v, %v; Python gives 1, 5", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "thr", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	write := func(lat, thr series, failRatio float64) string {
		rep := report{Workloads: map[string]*workloadReport{"w": {
			FailRatio: failRatio, EndToEnd: map[string]*series{"lat": &lat, "thr": &thr}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tight := func(m float64) series { return series{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	base := write(tight(10), tight(100), 0)
	for _, tc := range []struct {
		name     string
		lat, thr series
		fail     float64
		wantErr  bool
		wantRows []string
	}{
		{"same", tight(10.5), tight(95), 0, false, []string{"ok", "ok"}},
		{"slower", tight(11.5), tight(100), 0, true, []string{"worse", "ok"}},
		{"less throughput", tight(10), tight(85), 0, true, []string{"ok", "worse"}},
		{"noisy", series{Median: 11.5, Q1: 10, Q3: 13}, tight(100), 0, false, []string{"unresolved", "ok"}},
		{"failures", tight(10), tight(100), 0.01, true, []string{"ok", "ok", "worse"}},
	} {
		var out bytes.Buffer
		err := compareFiles(spec, base, write(tc.lat, tc.thr, tc.fail), &out)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		var rows []string
		for _, line := range strings.Split(out.String(), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "w" {
				rows = append(rows, f[len(f)-1])
			}
		}
		if !reflect.DeepEqual(rows, tc.wantRows) {
			t.Errorf("%s: verdicts %v, want %v\n%s", tc.name, rows, tc.wantRows, out.String())
		}
	}
}
