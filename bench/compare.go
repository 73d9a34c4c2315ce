package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// readSets loads the documents of an -out file and returns, per workload
// and end-to-end metric, the values to compare: each invocation's median
// when the file holds several, the repeats of the one invocation otherwise.
func readSets(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(f)
	for {
		var doc document
		if err := dec.Decode(&doc); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !doc.Traced {
			docs = append(docs, doc)
		}
	}
	sets := make(map[string]map[string][]float64)
	for _, doc := range docs {
		for _, o := range doc.Workloads {
			if sets[o.Workload] == nil {
				sets[o.Workload] = make(map[string][]float64)
			}
			for _, def := range endToEnd {
				if len(docs) > 1 {
					sets[o.Workload][def.Name] = append(sets[o.Workload][def.Name], o.Metrics[def.Name].Median)
				} else {
					sets[o.Workload][def.Name] = o.Values[def.Name]
				}
			}
		}
	}
	return sets, nil
}

// verdict judges set b against base a for one metric. worse and better are
// by the medians against the bound; a side whose own spread exceeds the
// bound cannot resolve a difference while the two sets' values interleave.
func verdict(a, b []float64, def metricDef) (string, float64) {
	sa, sb := summarize(a), summarize(b)
	worse := (sb.Median - sa.Median) / sa.Median
	if def.Better == "higher" {
		worse = -worse
	}
	apart := slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
	switch {
	case (sa.spread() > def.Bound || sb.spread() > def.Bound) && !apart:
		return "unresolved", worse
	case worse > def.Bound:
		return "worse", worse
	case -worse > max(sa.spread(), sb.spread()):
		return "better", worse
	default:
		return "within", worse
	}
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 when any row is worse.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readSets(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readSets(pathB); err == nil {
			return compareSets(out, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(out io.Writer, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(out, "%-14s %-13s %12s %25s %12s %25s %9s %6s %s\n",
		"workload", "metric", "a median", "a q1..q3 (n)", "b median", "b q1..q3 (n)", "b worse", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a[w.name][def.Name], b[w.name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			v, worse := verdict(va, vb, def)
			if v == "worse" {
				code = 1
			}
			quart := func(s summary) string { return fmt.Sprintf("%.4g..%.4g (%d)", s.Q1, s.Q3, s.N) }
			fmt.Fprintf(out, "%-14s %-13s %12.6g %25s %12.6g %25s %+8.1f%% %5.0f%% %s\n",
				w.name, def.Name, sa.Median, quart(sa), sb.Median, quart(sb), 100*worse, 100*def.Bound, v)
		}
	}
	fmt.Fprintf(out, "b worse: how far b's median is on the wrong side of a's, as a share of a's median (negative = better)\n")
	return code
}
