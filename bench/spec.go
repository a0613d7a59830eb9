package main

// BENCHMARK.json at the root of the repository is the single list of
// workloads, metric names, units and regression bounds; the harness reads
// it and refuses to report a metric it does not name, or to leave one out.
// Calibrated sizes live here.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot locates the directory holding BENCHMARK.json: the working
// directory (the driver's checkout root) or its parent (go run from
// bench/, go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// conform checks that a run reported exactly the metrics of one list.
func conform(list []metricSpec, got map[string]float64) error {
	want := map[string]bool{}
	for _, m := range list {
		want[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			return fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", m.Name)
		}
	}
	var extra []string
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return fmt.Errorf("measured metrics not listed in BENCHMARK.json: %v", extra)
	}
	return nil
}

// sizes are the calibrated input sizes. Operation counts are per
// refSeconds of timed section on the reference box (2 cores); --seconds
// scales them linearly, nothing scales them at run time, so two commits
// execute identical schedules.
type sizes struct {
	serveNodes    int // core graph of both serve workloads: 12-node, 16-edge components
	pointOps      int // serve_point requests, both clients together
	churnSessions int // serve_churn client A: snapshot sessions of 50 queries
	churnLiveOps  int // serve_churn client B: live operations, every 10th a load

	closureNodes, closureEdges, closureOps int

	spathNodes, spathEdges int // Fig. 3 shortest path
	arithNodes, arithEdges int // bounded-cost arithmetic recursion
	spathOps               int

	persistFacts, persistFrames, persistOps int
}

const refSeconds = 10

var calibrated = sizes{
	serveNodes:    12000,
	pointOps:      147000,
	churnSessions: 1210, churnLiveOps: 60500,

	closureNodes: 96, closureEdges: 480, closureOps: 240,

	spathNodes: 48, spathEdges: 192,
	arithNodes: 24, arithEdges: 480,
	spathOps: 390,

	persistFacts: 50000, persistFrames: 64, persistOps: 700000,
}

// scaled returns the sizes for a run of the given length. scale < 1
// additionally shrinks the data (the smoke test's -scale 0.01); data is
// never grown.
func (s sizes) scaled(seconds, scale float64) sizes {
	ops := func(n, floor int) int { return max(int(float64(n)*seconds/refSeconds*scale), floor) }
	data := func(n, floor int) int { return max(int(float64(n)*min(scale, 1)), floor) }
	s.pointOps = ops(s.pointOps, 40)
	s.churnSessions = ops(s.churnSessions, 2)
	s.churnLiveOps = ops(s.churnLiveOps, 40)
	s.closureOps = ops(s.closureOps, 6)
	s.spathOps = ops(s.spathOps, 6)
	s.persistOps = ops(s.persistOps, 40)
	if scale < 1 {
		s.serveNodes = data(s.serveNodes, 480)
		s.closureNodes, s.closureEdges = data(s.closureNodes, 24), data(s.closureEdges, 96)
		s.spathNodes, s.spathEdges = data(s.spathNodes, 16), data(s.spathEdges, 48)
		s.arithNodes, s.arithEdges = data(s.arithNodes, 12), data(s.arithEdges, 60)
		s.persistFacts = data(s.persistFacts, 2000)
	}
	return s
}
