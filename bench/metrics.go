package main

import (
	"math"
	"sort"
)

// metricDef names one emitted metric and its unit. BENCHMARK.json
// lists the same names; bench_test.go keeps the two equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the program sees, measured with
// tracing off. Every workload emits all of them; README.md says what
// an "op" is on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mib", "MiB"},
}

// profileModules are the repository packages the traced run's CPU
// profile attributes samples to (by innermost repository frame), plus
// gc (background collection) and other (no repository frame: the
// runtime, the standard library, the harness itself).
var profileModules = []string{
	"baselines", "collective", "cost", "distrib", "engine", "fault", "hw",
	"mesh", "model", "nn", "parallel", "serve", "sim", "solver", "spec",
	"stream", "surrogate", "tcme", "tensor", "unit", "gc", "other",
}

// perLayer are the traced run's metrics, named <module>.<metric>. A
// layer a workload never reaches reads 0 there; times are given as
// shares of the op time so that no metric is a constant zero time.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, m := range profileModules {
		out = append(out, metricDef{m + ".cpu_share", "share"})
	}
	return append(out,
		metricDef{"collective.lowering_hits_per_op", "1/op"},
		metricDef{"collective.lowering_misses_per_op", "1/op"},
		metricDef{"collective.lowering_hit_ratio", "ratio"},
		metricDef{"collective.templates_per_op", "1/op"},
		metricDef{"engine.hits_per_op", "1/op"},
		metricDef{"engine.misses_per_op", "1/op"},
		metricDef{"engine.disk_hits_per_op", "1/op"},
		metricDef{"engine.hit_ratio", "ratio"},
		metricDef{"engine.batch_calls_per_op", "1/op"},
		metricDef{"engine.mean_batch", "jobs"},
		metricDef{"engine.coalesce_flushes_per_op", "1/op"},
		metricDef{"engine.coalesce_shared_ratio", "ratio"},
		metricDef{"solver.evals_per_op", "1/op"},
		metricDef{"solver.screen_evals_per_op", "1/op"},
		metricDef{"solver.evals_per_s", "1/s"},
		metricDef{"solver.build_share", "share"},
		metricDef{"solver.solve_share", "share"},
		metricDef{"solver.costmodel_share", "share"},
		metricDef{"distrib.attach_share", "share"},
		metricDef{"distrib.busy_share", "share"},
		metricDef{"distrib.steal_wait_share", "share"},
		metricDef{"distrib.shards_per_op", "1/op"},
		metricDef{"distrib.stolen_ratio", "ratio"},
		metricDef{"distrib.requeued", "count"},
		metricDef{"distrib.inprocess_tasks", "count"},
		metricDef{"fault.functional_rate", "ratio"},
		metricDef{"fault.trials_per_s", "1/s"},
		metricDef{"spec.resolve_share", "share"},
		metricDef{"sim.run_share", "share"},
		metricDef{"serve.queue_wait_share", "share"},
		metricDef{"serve.handler_share", "share"},
		metricDef{"serve.overhead_share", "share"},
		metricDef{"serve.client_wait_share", "share"},
		metricDef{"serve.gen_late_share", "share"},
		metricDef{"serve.fresh_to_pool_p50_ratio", "ratio"},
		metricDef{"serve.rejected_503", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "B/op"},
		metricDef{"runtime.allocs_per_op", "1/op"},
		metricDef{"runtime.gc_cycles_per_op", "1/op"},
		metricDef{"runtime.gc_pause_ms_per_op", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// value is one reported metric: the number, its unit, and the samples
// behind it. For a per-repetition metric Value is the median over
// repetitions and Q1/Q3 their quartiles; for a latency percentile the
// samples are the ops of every repetition pooled, Q1/Q3 the quartiles
// of that distribution.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// percentileLevels are the levels a tail latency may be reported at.
var percentileLevels = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailLevel is the reporting rule for tails: the highest level with at
// least ten samples beyond it, or 0 when n is too small for any.
func tailLevel(n int) float64 {
	best := 0.0
	for _, p := range percentileLevels {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantile reads the q-quantile of ascending-sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median summarizes per-repetition values: median, quartiles, n.
func median(xs []float64, unit string) value {
	s := sortedCopy(xs)
	return value{Value: quantile(s, 0.5), Unit: unit, N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// percentile reports the q-quantile of a pooled sample, with the
// sample's quartiles.
func percentile(xs []float64, q float64, unit string) value {
	s := sortedCopy(xs)
	return value{Value: quantile(s, q), Unit: unit, N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// single reports a per-layer value measured once.
func single(v float64, unit string) value {
	return value{Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}

// layerValues reports a traced run's per-layer values with their units.
func layerValues(layer map[string]float64) map[string]value {
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	out := map[string]value{}
	for k, v := range layer {
		out[k] = single(v, units[k])
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// geomean is the geometric mean of the positive values (0 when none).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
