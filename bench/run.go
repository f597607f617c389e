package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// options are one run's settings.
type options struct {
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	tempserve string
	spans     string
}

// workloads in the order `-workload all` runs them.
var workloads = []struct {
	name string
	run  func(options) (*report, error)
}{
	{"sweep", runSweep},
	{"search", runSearch},
	{"serve", runServe},
	{"campaign", runCampaign},
}

// report is one workload run's outcome, written with -json and folded
// into the final result line.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	tally
	Metrics map[string]value `json:"metrics"`
	// Exact holds output summaries that depend only on the inputs
	// (geomean results, a digest of every output): two runs with the
	// same seed must agree exactly, whatever the timing.
	Exact map[string]string `json:"exact,omitempty"`
	// Spans are the traced run's harness-side spans.
	Spans []span `json:"-"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run (from /proc/stat): on a shared
	// host it explains slow runs that no change of the program caused.
	StealShare float64 `json:"steal_share"`
}

// errorRatio is failed ÷ attempted.
func (r *report) errorRatio() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func cmdRun(args []string, traceCmd bool) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "all", "sweep | search | serve | campaign | all")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it (2 is the held-out seed)")
	seconds := fs.Float64("seconds", 20, "timed seconds per workload run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes for tests: exercises every path, measures nothing reliable")
	jsonPath := fs.String("json", "", "append each workload's full report (quartiles, n, exact outputs) to this JSON-lines file")
	tempserve := fs.String("tempserve", "", "tempserve binary (default: next to this executable)")
	spans := fs.String("spans", "", "traced runs: write the harness spans to this JSON file")
	fs.Parse(args)
	o := options{seed: *seed, seconds: *seconds, trace: traceCmd || *traceFlag == 1, smoke: *smoke, tempserve: *tempserve, spans: *spans}
	if o.tempserve == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		o.tempserve = filepath.Join(filepath.Dir(exe), "tempserve")
	}
	ran, failed := false, false
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran = true
		steal0, total0 := cpuTicks()
		rep, err := w.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		steal1, total1 := cpuTicks()
		rep.Workload, rep.Seed, rep.Trace = w.name, o.seed, o.trace
		rep.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
		if err := rep.complete(o); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.print(os.Stdout)
		if *jsonPath != "" {
			if err := appendJSONLine(*jsonPath, rep); err != nil {
				return err
			}
		}
		if o.spans != "" && rep.Spans != nil {
			if err := writeJSON(o.spans, rep.Spans); err != nil {
				return err
			}
		}
		line, err := rep.resultLine()
		if err != nil {
			return err
		}
		fmt.Println(line)
		failed = failed || rep.Failed > 0
	}
	if !ran {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if failed {
		return errors.New("output checks failed")
	}
	return nil
}

// complete checks that the report carries exactly the metric set the
// run mode promises, filling per-layer metrics a workload never
// reaches with 0.
func (r *report) complete(o options) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
		for _, d := range defs {
			if _, ok := r.Metrics[d.name]; !ok {
				r.Metrics[d.name] = single(0, d.unit)
			}
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("emitted %d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if v.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		}
	}
	if p90, ok := r.Metrics["op_p90_ms"]; ok && !o.smoke && tailLevel(p90.N) < 0.9 {
		return fmt.Errorf("op_p90_ms rests on %d samples; the 90th percentile needs %d", p90.N, minOps)
	}
	return nil
}

// print writes the human-readable table: every metric with its unit,
// value, quartiles and sample count.
func (r *report) print(f *os.File) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(f, "== %s  seed %d  %s  attempted %d  failed %d  error_ratio %.4g  cpu stolen %.1f%%\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.errorRatio(), 100*r.StealShare)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(f, "  %-36s %14.6g %-6s  q1 %-12.6g q3 %-12.6g n %d\n", n, v.Value, v.Unit, v.Q1, v.Q3, v.N)
	}
	for _, k := range sortedKeys(r.Exact) {
		fmt.Fprintf(f, "  exact %-30s %s\n", k, r.Exact[k])
	}
	for _, msg := range r.Failures {
		fmt.Fprintf(f, "  FAILED %s\n", msg)
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resultLine is the one-line JSON result the benchmark ends with.
func (r *report) resultLine() (string, error) {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricOut{}}
	for n, v := range r.Metrics {
		out.Metrics[n] = metricOut{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
