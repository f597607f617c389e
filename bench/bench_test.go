package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary when
// a batch workload re-executes itself as a repetition child or a
// fabric worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child", "worker":
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness emits %v", layer, perLayer)
	}
}

// generated renders every input a workload's seed generates.
func generated(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	st := newRequestStream(seed, false)
	var reqs []request
	for i := 0; i < 200; i++ {
		reqs = append(reqs, st.Next())
	}
	camp, verify := campaignInputs(seed, false)
	inputs := map[string]any{
		"sweep":    sweepInputs(seed, false),
		"search":   searchInputs(seed, false),
		"serve":    []any{st.poolRequests(), reqs, arrivals(seed, "nominal", nominalRate, 9)},
		"campaign": []any{camp, verify},
	}
	out := map[string][]byte{}
	for w, in := range inputs {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		out[w] = b
	}
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, again, b := generated(t, 1), generated(t, 1), generated(t, 2)
	for w := range a {
		if !bytes.Equal(a[w], again[w]) {
			t.Errorf("%s: seed 1 generated different inputs twice", w)
		}
		if bytes.Equal(a[w], b[w]) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w)
		}
	}
}

func TestInputMixIsStratified(t *testing.T) {
	ops := sweepInputs(3, false)
	perSystem, replay, verify := map[string]int{}, 0, 0
	for _, op := range ops {
		perSystem[op.Spec.System.Name]++
		if op.Spec.Cost != nil {
			replay++
		}
		if op.Verify {
			verify++
		}
	}
	for sys, n := range perSystem {
		if n != 30 {
			t.Errorf("sweep: system %s drawn %d times, want 30", sys, n)
		}
	}
	if len(perSystem) != 7 || replay != 35 || verify != len(ops)/20 {
		t.Errorf("sweep: %d systems, %d replay, %d verified of %d", len(perSystem), replay, verify, len(ops))
	}
	strategies := map[string]int{}
	for _, op := range searchInputs(3, false) {
		strategies[op.Strategy]++
	}
	for _, s := range strategyMix {
		if strategies[s.name] != s.n {
			t.Errorf("search: %s drawn %d times, want %d", s.name, strategies[s.name], s.n)
		}
	}
	st := newRequestStream(3, false)
	kinds := map[string]int{}
	for i := 0; i < 10*blockLen; i++ {
		kinds[st.Next().Kind]++
	}
	if kinds["solve"] != 10*blockSolves || kinds["sweep"] != 10*blockSweeps || kinds["fresh"] != 10*blockFresh {
		t.Errorf("serve: kind mix %v over %d requests", kinds, 10*blockLen)
	}
}

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9},
		{199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v := percentile(xs, 0.9, "ms"); v.Value != 90 || v.N != 100 || v.Q1 != 25 || v.Q3 != 75 {
		t.Errorf("percentile(1..100, 0.9) = %+v", v)
	}
	rep := &report{Metrics: map[string]value{}}
	for _, d := range endToEnd {
		rep.Metrics[d.name] = value{Unit: d.unit, N: 99}
	}
	if err := rep.complete(options{}); err == nil {
		t.Error("a 90th percentile over 99 samples was accepted")
	}
	rep.Metrics["op_p90_ms"] = value{Unit: "ms", N: 100}
	if err := rep.complete(options{}); err != nil {
		t.Error(err)
	}
}

func TestAttributeTraces(t *testing.T) {
	text := `File: bench
Type: cpu
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             temp/internal/mesh.(*Topology).RouteXY
             temp/internal/collective.lower
-----------+-------------------------------------------------------
      10ms   temp/internal/tcme.clonePhase (inline)
             temp/internal/tcme.Optimize
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     1.01s   syscall.Syscall
             main.main
-----------+-------------------------------------------------------
`
	got := attributeTraces(text)
	want := map[string]float64{"mesh": 20e6, "tcme": 10e6, "gc": 30e6, "other": 1.01e9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attributeTraces = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "solver.models", Parent: 0, Start: 0, End: 30},
		{Name: "solver.solve", Parent: 0, Start: 30, End: 90},
	}
	self := selfTimes(spans)
	if self["op"] != 10 || self["solver.models"] != 30 || self["solver.solve"] != 60 || rootTime(spans) != 100 {
		t.Errorf("selfTimes = %v, rootTime = %v", self, rootTime(spans))
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced,
// and checks that each emits exactly its promised metrics with every
// output check passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	tempserve := filepath.Join(dir, "tempserve")
	build := exec.Command("go", "build", "-o", tempserve, "temp/cmd/tempserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tempserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: 1, smoke: true, trace: traced, tempserve: tempserve}
			rep, err := w.run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if err := rep.complete(o); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, traced, err)
			}
			if rep.Failed > 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			if traced {
				var sum float64
				for _, m := range profileModules {
					sum += rep.Metrics[m+".cpu_share"].Value
				}
				if sum < 0.99 || sum > 1.01 {
					t.Errorf("%s: profile shares sum to %v", w.name, sum)
				}
			}
		}
	}
}
