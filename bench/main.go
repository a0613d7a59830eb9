// Command bench is the repository's benchmark: five seeded workloads over
// the coral library, its server and its storage manager, end-to-end
// metrics with tracing off, and a traced run that attributes time to the
// layers of the paper's Fig. 1 pipeline. README.md explains every metric.
//
//	go run . -seed 1                 every workload, every end-to-end metric, out/result.json
//	go run . -seed 1 -trace 1        the same plus the per-layer metrics and out/trace-*.json
//	go run . -repeat 5               medians and quartiles over five runs of the set
//	go run . -compare a.json b.json  regression check against BENCHMARK.json's bounds
//	go run . -workload serve_point -seed 1 -seconds 10 -trace 0   one run, as the driver makes it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	repeat   int
	root     string // the directory holding BENCHMARK.json
	outDir   string
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "the only source of randomness: same seed, same inputs")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of the timed section the schedule is sized for (default: BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	fs.Float64Var(&o.scale, "scale", 1, "shrink schedules and data (smoke tests use 0.01)")
	fs.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times; report medians and quartiles")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	o.root, o.outDir = root, filepath.Join(root, "bench", "out")
	if o.workload != "" {
		return runOne(spec, o)
	}
	return runAll(spec, o)
}

func newWorkload(name string, o options, tmp string) (workload, error) {
	sz := calibrated.scaled(o.seconds, o.scale)
	switch name {
	case "serve_point":
		return newServePoint(o.seed, sz), nil
	case "serve_churn":
		return newServeChurn(o.seed, sz), nil
	case "closure_join":
		return newClosureJoin(o.seed, sz), nil
	case "spath_arith":
		return newSpathArith(o.seed, sz), nil
	case "persist_mixed":
		return newPersistMixed(o.seed, sz, tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// measure runs one workload once, traced or not, and checks the metric
// set against BENCHMARK.json.
func measure(spec *benchSpec, name string, o options, traced bool) (*result, error) {
	tmp, err := os.MkdirTemp(mkdir(o.outDir), "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	w, err := newWorkload(name, o, tmp)
	if err != nil {
		return nil, err
	}
	var res *result
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
		res, err = runTraced(w, name, o.seconds, o.outDir, spec.PerLayer)
	} else {
		res, err = runEndToEnd(w, o.seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := conform(list, res.Metrics); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports what is wrong with dir
	return dir
}

func printMetrics(list []metricSpec, name string, res *result) {
	fmt.Printf("%s  seed-hash=%s  ops=%v  attempted=%d failed=%d\n", name, res.Hash, res.Ops, res.Attempted, res.Failed)
	for _, m := range list {
		fmt.Printf("  %-34s %16.6g %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
}

// runOne is the driver's entry: one workload, one run, and as the last
// line of standard output one JSON object.
func runOne(spec *benchSpec, o options) error {
	traced := o.trace != 0
	res, err := measure(spec, o.workload, o, traced)
	if err != nil {
		return err
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	printMetrics(list, o.workload, res)
	return emit(os.Stdout, list, o.workload, res)
}

// emit prints the driver's result line and fails when any operation did,
// which main turns into a non-zero exit.
func emit(out io.Writer, list []metricSpec, name string, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range list {
		line.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// series is one metric over the runs of a set.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Hash      string             `json:"schedule_hash"`
	Ops       map[string]int     `json:"ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer,omitempty"`
}

// report is the content of out/result.json.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Repeat    int                        `json:"repeat"`
	Nproc     int                        `json:"nproc"`
	Gomaxproc int                        `json:"gomaxprocs"`
	GoVersion string                     `json:"go_version"`
	GitRev    string                     `json:"git_rev"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func (wr *workloadReport) add(into map[string]*series, list []metricSpec, res *result) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	for _, m := range list {
		s := into[m.Name]
		if s == nil {
			s = &series{Unit: m.Unit}
			into[m.Name] = s
		}
		s.Values = append(s.Values, res.Metrics[m.Name])
		s.Median = median(s.Values)
		s.Q1, s.Q3 = quartiles(s.Values)
	}
}

// gitRev reads the checked-out commit without running git; a checkout
// that is not a repository reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// runAll runs the whole set -repeat times, prints every metric by name
// with its unit, and writes out/result.json.
func runAll(spec *benchSpec, o options) error {
	rep := &report{Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Repeat: o.repeat,
		Nproc: runtime.NumCPU(), Gomaxproc: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev(o.root), Workloads: map[string]*workloadReport{}}
	for k := 0; k < o.repeat; k++ {
		for _, name := range spec.workloadNames() {
			wr := rep.Workloads[name]
			if wr == nil {
				wr = &workloadReport{EndToEnd: map[string]*series{}}
				rep.Workloads[name] = wr
			}
			res, err := measure(spec, name, o, false)
			if err != nil {
				return err
			}
			wr.Hash, wr.Ops = res.Hash, res.Ops
			wr.add(wr.EndToEnd, spec.EndToEnd, res)
			printMetrics(spec.EndToEnd, name, res)
			if o.trace != 0 {
				tres, err := measure(spec, name, o, true)
				if err != nil {
					return err
				}
				if wr.PerLayer == nil {
					wr.PerLayer = map[string]*series{}
				}
				wr.add(wr.PerLayer, spec.PerLayer, tres)
				printMetrics(spec.PerLayer, name+" (traced)", tres)
			}
			wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
		}
	}
	if o.repeat > 1 {
		fmt.Printf("\nmedians over %d runs [q1, q3]\n", o.repeat)
		for _, name := range spec.workloadNames() {
			fmt.Println(name)
			for _, m := range spec.EndToEnd {
				s := rep.Workloads[name].EndToEnd[m.Name]
				fmt.Printf("  %-34s %16.6g %-6s [%.6g, %.6g] spread %.2f%%\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3,
					100*ratio(s.Q3-s.Q1, s.Median))
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(mkdir(o.outDir), "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	failed := 0
	for _, wr := range rep.Workloads {
		failed += wr.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
