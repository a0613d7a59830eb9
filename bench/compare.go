package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict classifies one (workload, metric) pair of medians against the
// metric's bound: worse when the new median is beyond the bound on the bad
// side, unresolved when either side's own run-to-run spread (interquartile
// range over median) exceeds the bound so the medians cannot settle it.
func verdict(m metricSpec, old, new *series) string {
	change := ratio(new.Median-old.Median, old.Median)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case ratio(old.Q3-old.Q1, old.Median) > m.Bound || ratio(new.Q3-new.Q1, new.Median) > m.Bound:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and fails
// on any "worse" row or a higher fail ratio. Every ratio is printed with
// its base.
func compareFiles(spec *benchSpec, oldPath, newPath string, out io.Writer) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	worse, unresolved := 0, 0
	fmt.Fprintf(out, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, name := range spec.workloadNames() {
		ow, nw := old.Workloads[name], cur.Workloads[name]
		if ow == nil || nw == nil {
			return fmt.Errorf("workload %s is missing from one of the files", name)
		}
		for _, m := range spec.EndToEnd {
			os, ns := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if os == nil || ns == nil {
				return fmt.Errorf("%s: metric %s is missing from one of the files", name, m.Name)
			}
			v := verdict(m, os, ns)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(out, "%-14s %-16s %14.6g %14.6g %9.4f %6.0f%%  %s\n", name, m.Name, os.Median, ns.Median,
				ratio(ns.Median, os.Median), 100*m.Bound, v)
		}
		if nw.FailRatio > ow.FailRatio {
			worse++
			fmt.Fprintf(out, "%-14s %-16s %14.6g %14.6g %9s %7s  worse\n", name, "fail_ratio", ow.FailRatio, nw.FailRatio, "", "+0")
		}
	}
	fmt.Fprintf(out, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d regressions beyond their bounds", worse)
	}
	return nil
}
