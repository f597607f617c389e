package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the repository root or, when
// run from bench/, its parent.
func loadBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = "../BENCHMARK.json"
		}
	}
	err := readJSON(path, &bf)
	return bf, err
}

// loadReports reads a -json file: one report per line.
func loadReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one set of runs (untraced or traced), grouped by workload
// then metric.
type side map[string]map[string][]float64

func group(reps []report, traced bool) side {
	s := side{}
	for _, r := range reps {
		if r.Trace != traced {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], v.Value)
		}
	}
	return s
}

// verdict compares one metric on one workload: B against A. A metric
// whose run-to-run spread (quartile distance over median) exceeds its
// bound is unresolved, not unchanged, unless every B run beats every A
// run.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	sa, sb := median(a, ""), median(b, "")
	change := (sb.Value - sa.Value) / sa.Value
	worse := change
	if !lowerBetter {
		worse = -change
	}
	spread := max((sa.Q3-sa.Q1)/sa.Value, (sb.Q3-sb.Q1)/sb.Value)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better", change
	case spread > bound:
		return "unresolved", change
	case worse > bound:
		return "REGRESSION", change
	default:
		return "ok", change
	}
}

// exactMismatches lists (workload, seed) pairs whose exact outputs
// differ between the two sets.
func exactMismatches(a, b []report) []string {
	seen := map[string]map[string]string{}
	for _, r := range a {
		seen[fmt.Sprintf("%s/%d", r.Workload, r.Seed)] = r.Exact
	}
	var out []string
	for _, r := range b {
		key := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		want, ok := seen[key]
		if !ok {
			continue
		}
		for k, v := range r.Exact {
			if want[k] != v {
				out = append(out, fmt.Sprintf("%s %s: %s vs %s", key, k, want[k], v))
			}
		}
	}
	sort.Strings(out)
	return out
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	bounds := fs.String("bounds", "", "BENCHMARK.json (default: ./BENCHMARK.json or ../BENCHMARK.json)")
	summary := fs.String("summary", "", "also write both sets' medians, quartiles and n per (workload, metric) to this JSON file")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("compare wants two -json files: the baseline set, then the candidate set")
	}
	bf, err := loadBenchmark(*bounds)
	if err != nil {
		return err
	}
	ra, err := loadReports(fs.Arg(0))
	if err != nil {
		return err
	}
	rb, err := loadReports(fs.Arg(1))
	if err != nil {
		return err
	}
	a, b := group(ra, false), group(rb, false)
	bad := false
	for _, w := range bf.Workloads {
		if a[w.Name] == nil || b[w.Name] == nil {
			fmt.Printf("%-9s missing from one set\n", w.Name)
			bad = true
			continue
		}
		var cells []string
		for _, m := range bf.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				cells = append(cells, m.Name+" missing")
				bad = true
				continue
			}
			v, change := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "REGRESSION" || v == "unresolved" {
				bad = true
			}
			cells = append(cells, fmt.Sprintf("%s %+.1f%% %s", m.Name, 100*change, v))
		}
		fmt.Printf("%-9s n=%d/%d  cpu stolen %.0f%%/%.0f%%  %s\n", w.Name, len(a[w.Name]["setup_s"]), len(b[w.Name]["setup_s"]),
			100*medianSteal(ra, w.Name), 100*medianSteal(rb, w.Name), strings.Join(cells, " | "))
	}
	for _, m := range exactMismatches(ra, rb) {
		fmt.Println("EXACT MISMATCH", m)
		bad = true
	}
	if *summary != "" {
		units := map[string]string{}
		for _, m := range bf.EndToEnd {
			units[m.Name] = m.Unit
		}
		for _, m := range bf.PerLayer {
			units[m.Name] = m.Unit
		}
		out := map[string]any{
			"sets":   []any{summarize(a, units), summarize(b, units)},
			"traced": []any{summarize(group(ra, true), units), summarize(group(rb, true), units)},
		}
		if err := writeJSON(*summary, out); err != nil {
			return err
		}
	}
	if bad {
		return errors.New("regression, unresolved metric or exact mismatch")
	}
	return nil
}

// medianSteal is the median CPU share stolen from a workload's
// untraced runs: a side measured on a contended host reads slower.
func medianSteal(reps []report, workload string) float64 {
	var xs []float64
	for _, r := range reps {
		if r.Workload == workload && !r.Trace {
			xs = append(xs, r.StealShare)
		}
	}
	return median(xs, "").Value
}

// summarize reduces a set to median, quartiles and n per (workload,
// metric).
func summarize(s side, units map[string]string) map[string]map[string]value {
	out := map[string]map[string]value{}
	for w, ms := range s {
		out[w] = map[string]value{}
		for name, xs := range ms {
			out[w][name] = median(xs, units[name])
		}
	}
	return out
}
