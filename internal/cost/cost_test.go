package cost

import (
	"testing"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

func temp825() (model.Config, hw.Wafer) {
	return model.GPT3_6_7B(), hw.EvaluationWafer()
}

func mustEval(t *testing.T, m model.Config, w hw.Wafer, cfg parallel.Config, o Options) Breakdown {
	t.Helper()
	b, err := Evaluate(m, w, cfg, o)
	if err != nil {
		t.Fatalf("Evaluate(%s, %s): %v", m.Name, cfg, err)
	}
	return b
}

func megaOpts(e Engine) Options {
	return Options{Engine: e, Recompute: RecomputeNone, Microbatch: 1, NoFlashAttention: true}
}

func mespOpts(e Engine) Options {
	return Options{Engine: e, Recompute: RecomputeSelective, DistributedOptimizer: true}
}

func fsdpOpts(e Engine) Options {
	return Options{Engine: e, Recompute: RecomputeFull, DistributedOptimizer: true}
}

func TestEvaluateBasicSanity(t *testing.T) {
	m, w := temp825()
	b := mustEval(t, m, w, parallel.Config{DP: 4, TATP: 8}, TEMPOptions())
	if b.StepTime <= 0 || b.ComputeTime <= 0 {
		t.Fatalf("non-positive times: %+v", b)
	}
	if b.StepTime < b.ComputeTime {
		t.Errorf("step %v < compute %v", b.StepTime, b.ComputeTime)
	}
	if b.ThroughputTokens <= 0 || b.Power <= 0 || b.PowerEfficiency <= 0 {
		t.Errorf("non-positive throughput/power: %+v", b)
	}
	if b.Memory.Total() <= 0 {
		t.Error("non-positive memory")
	}
	if b.BWUtilization < 0 || b.BWUtilization > 1 {
		t.Errorf("BW utilization out of range: %v", b.BWUtilization)
	}
}

// TestTEMPBeatsAllBaselines is the headline Fig. 13 shape: TEMP's
// best configuration outperforms every baseline on GPT-3 6.7B.
func TestTEMPBeatsAllBaselines(t *testing.T) {
	m, w := temp825()
	temp := mustEval(t, m, w, parallel.Config{DP: 4, TATP: 8}, TEMPOptions())
	baselines := []struct {
		name string
		cfg  parallel.Config
		o    Options
		band float64
	}{
		// Megatron-1's period-accurate conventions (no flash, full
		// activation stash) make it the big loser of Fig. 13.
		{"Mega+SMap", parallel.Config{DP: 16, TP: 2}, megaOpts(SMap), 6},
		{"Mega+GMap", parallel.Config{DP: 16, TP: 2}, megaOpts(GMap), 6},
		{"MeSP+SMap", parallel.Config{DP: 2, TP: 8, SP: 2, MegatronSP: true}, mespOpts(SMap), 3},
		{"MeSP+GMap", parallel.Config{DP: 2, TP: 8, SP: 2, MegatronSP: true}, mespOpts(GMap), 3},
		{"FSDP+SMap", parallel.Config{DP: 32, FSDP: true}, fsdpOpts(SMap), 3},
		{"FSDP+GMap", parallel.Config{DP: 32, FSDP: true}, fsdpOpts(GMap), 3},
	}
	for _, bl := range baselines {
		b := mustEval(t, m, w, bl.cfg, bl.o)
		if b.StepTime <= temp.StepTime {
			t.Errorf("%s (%v) not slower than TEMP (%v)", bl.name, b.StepTime, temp.StepTime)
		}
		if speedup := b.StepTime / temp.StepTime; speedup > bl.band {
			t.Errorf("%s speedup %.2fx implausibly large (band ≤%.0fx)", bl.name, speedup, bl.band)
		}
	}
}

// TestSMapSlowerThanGMap: the sequential mapper's rank-order
// communication pays multi-hop wraps that the topology-aware mapper
// avoids.
func TestSMapSlowerThanGMap(t *testing.T) {
	m, w := temp825()
	cfg := parallel.Config{DP: 4, TP: 8}
	sm := mustEval(t, m, w, cfg, megaOpts(SMap))
	gm := mustEval(t, m, w, cfg, megaOpts(GMap))
	if sm.CollectiveTime <= gm.CollectiveTime {
		t.Errorf("SMap collectives %v not worse than GMap %v", sm.CollectiveTime, gm.CollectiveTime)
	}
	if sm.StepTime <= gm.StepTime {
		t.Errorf("SMap step %v not worse than GMap %v", sm.StepTime, gm.StepTime)
	}
}

// TestTCMENotWorseThanGMap: the optimizer must never lose to the
// contention-agnostic engine on identical configurations.
func TestTCMENotWorseThanGMap(t *testing.T) {
	m, w := temp825()
	for _, cfg := range []parallel.Config{
		{DP: 4, TATP: 8},
		{DP: 2, TP: 2, TATP: 8},
		{DP: 8, TP: 4},
	} {
		o := TEMPOptions()
		g := o
		g.Engine = GMap
		tc := mustEval(t, m, w, cfg, o)
		gm := mustEval(t, m, w, cfg, g)
		if tc.StepTime > gm.StepTime*(1+1e-9) {
			t.Errorf("%s: TCME %v slower than GMap %v", cfg, tc.StepTime, gm.StepTime)
		}
	}
}

// TestMegatronOOMOnLargeModels reproduces the Fig. 13 OOM pattern:
// replication-heavy Megatron-1 cannot hold the ≥70B models while
// TEMP's stream partitioning can.
func TestMegatronOOMOnLargeModels(t *testing.T) {
	w := hw.EvaluationWafer()
	for _, m := range []model.Config{model.Llama3_70B(), model.GPT3_175B(), model.OPT_175B()} {
		mega := mustEval(t, m, w, parallel.Config{DP: 4, TP: 8}, megaOpts(SMap))
		if !mega.OOM() {
			t.Errorf("%s under Megatron-1 should OOM (mem=%.0fGB cap=%.0fGB)",
				m.Name, mega.Memory.Total()/1e9, mega.Memory.Capacity/1e9)
		}
		temp := mustEval(t, m, w, parallel.Config{TP: 2, SP: 1, TATP: 16}, TEMPOptions())
		if temp.OOM() {
			t.Errorf("%s under TEMP should fit (mem=%.0fGB cap=%.0fGB)",
				m.Name, temp.Memory.Total()/1e9, temp.Memory.Capacity/1e9)
		}
	}
}

// TestTEMPMemoryBelowBaselines: TEMP's peak memory lands below the
// replication-based baselines (Fig. 13 memory panel: 49–82%).
func TestTEMPMemoryBelowBaselines(t *testing.T) {
	m, w := temp825()
	temp := mustEval(t, m, w, parallel.Config{DP: 4, TATP: 8}, TEMPOptions())
	mega := mustEval(t, m, w, parallel.Config{DP: 4, TP: 8}, megaOpts(GMap))
	if temp.Memory.Total() >= mega.Memory.Total() {
		t.Errorf("TEMP memory %.1fGB not below Megatron %.1fGB",
			temp.Memory.Total()/1e9, mega.Memory.Total()/1e9)
	}
}

// TestActivationReplicationDrivesMegatronMemory: the Fig. 4(a)/(c)
// mechanism — Megatron's TP leaves activations whole on every rank,
// MeSP's fused SP shards them.
func TestActivationReplicationDrivesMegatronMemory(t *testing.T) {
	m, w := temp825()
	mega := MemoryPerDie(m, w, (parallel.Config{DP: 4, TP: 8}).Normalize(), megaOpts(GMap), m.Layers)
	mesp := MemoryPerDie(m, w, (parallel.Config{DP: 4, TP: 4, SP: 2, MegatronSP: true}).Normalize(), mespOpts(GMap), m.Layers)
	if mega.Activations <= mesp.Activations {
		t.Errorf("Megatron activations %.1fGB not above MeSP %.1fGB",
			mega.Activations/1e9, mesp.Activations/1e9)
	}
	if r := mega.Activations / mesp.Activations; r < 4 {
		t.Errorf("activation replication ratio = %.1f, want ≥4 (TP·SP sharding gap)", r)
	}
}

// TestSweetSpotFig9: with canonical weight streaming, throughput
// peaks at a TATP degree of 8–16 and declines beyond (Fig. 9).
func TestSweetSpotFig9(t *testing.T) {
	mm := model.GPT3_175B()
	mm.Layers = 1
	o := TEMPOptions()
	o.ForceStreamWeights = true
	tput := map[int]float64{}
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		rows, cols := 2, n/2
		if n == 2 {
			rows, cols = 1, 2
		}
		b := mustEval(t, mm, hw.WaferWithGrid(rows, cols), parallel.Config{TATP: n}, o)
		tput[n] = b.ThroughputTokens
	}
	best := 2
	for _, n := range []int{4, 8, 16, 32, 64} {
		if tput[n] > tput[best] {
			best = n
		}
	}
	if best != 8 && best != 16 {
		t.Errorf("throughput sweet spot at N=%d, want 8–16 (Fig. 9); series=%v", best, tput)
	}
	if tput[64] >= tput[best] {
		t.Error("throughput should decline past the sweet spot")
	}
}

// TestStreamOverlapAblation: disabling compute/communication overlap
// must not speed anything up.
func TestStreamOverlapAblation(t *testing.T) {
	m, w := temp825()
	cfg := parallel.Config{DP: 2, TATP: 16}
	on := mustEval(t, m, w, cfg, TEMPOptions())
	off := TEMPOptions()
	off.DisableStreamOverlap = true
	noOv := mustEval(t, m, w, cfg, off)
	if noOv.StepTime <= on.StepTime {
		t.Errorf("overlap-off step %v not slower than overlap-on %v", noOv.StepTime, on.StepTime)
	}
}

// TestSelectiveTransferPolicy: long sequences stream weights, short
// sequences with small microbatches stream activations (§V policy).
func TestSelectiveTransferPolicy(t *testing.T) {
	long := model.Llama2_7B().WithSeq(16384, 32)
	cfg := (parallel.Config{TATP: 32}).Normalize()
	g := model.BlockGraph(long)
	var fc1 model.Op
	for _, op := range g.Ops {
		if op.Name == "fc1" {
			fc1 = op
		}
	}
	o := TEMPOptions()
	o.Microbatch = 8
	_, operand := streamSubTensorBytes(fc1, long, cfg, o)
	if operand.String() != "weights" {
		t.Errorf("long-sequence policy streams %v, want weights", operand)
	}
	short := model.GPT3_6_7B()
	gs := model.BlockGraph(short)
	for _, op := range gs.Ops {
		if op.Name == "fc1" {
			fc1 = op
		}
	}
	o.Microbatch = 1
	_, operand = streamSubTensorBytes(fc1, short, cfg, o)
	if operand.String() != "inputs" {
		t.Errorf("short-sequence policy streams %v, want inputs", operand)
	}
	// ForceStreamWeights overrides.
	o.ForceStreamWeights = true
	_, operand = streamSubTensorBytes(fc1, short, cfg, o)
	if operand.String() != "weights" {
		t.Errorf("ForceStreamWeights ignored: %v", operand)
	}
}

// TestFSDPRecomputeEnergy: full recomputation costs extra compute
// energy, reflected in power efficiency.
func TestFSDPRecomputeEnergy(t *testing.T) {
	m, w := temp825()
	fsdp := mustEval(t, m, w, parallel.Config{DP: 32, FSDP: true}, fsdpOpts(GMap))
	temp := mustEval(t, m, w, parallel.Config{DP: 4, TATP: 8}, TEMPOptions())
	if fsdp.PowerEfficiency >= temp.PowerEfficiency {
		t.Errorf("FSDP power efficiency %.1f not below TEMP %.1f",
			fsdp.PowerEfficiency, temp.PowerEfficiency)
	}
}

// TestPipelineBubbles: multi-wafer PP introduces bubbles; more
// microbatches amortize them (§VIII-E).
func TestPipelineBubbles(t *testing.T) {
	m := model.GPT3_175B()
	w := hw.EvaluationWafer()
	o := TEMPOptions()
	o.Wafers = 2
	cfg := parallel.Config{TP: 2, TATP: 16, PP: 2}
	b := mustEval(t, m, w, cfg, o)
	if b.BubbleTime <= 0 {
		t.Fatal("PP=2 should produce bubble time")
	}
	single := mustEval(t, m, w, parallel.Config{TP: 2, TATP: 16}, TEMPOptions())
	if single.BubbleTime != 0 {
		t.Error("single wafer should have no bubbles")
	}
	// Bubble fraction must shrink with smaller microbatches (more
	// accumulation steps).
	o2 := o
	o2.Microbatch = 1
	b2 := mustEval(t, m, w, cfg, o2)
	f1 := b.BubbleTime / b.StepTime
	f2 := b2.BubbleTime / b2.StepTime
	if f2 >= f1 {
		t.Errorf("bubble fraction should shrink with more microbatches: %v → %v", f1, f2)
	}
}

// TestGPUClusterComparison reproduces Fig. 15's ordering:
// Wafer+TEMP < GPU+MeSP < Wafer+MeSP in training latency.
func TestGPUClusterComparison(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.ComparisonWafer32()
	c := hw.A100Cluster()
	gpu, err := EvaluateCluster(m, c, parallel.Config{DP: 4, TP: 8, MegatronSP: true}, mespOpts(GMap))
	if err != nil {
		t.Fatal(err)
	}
	waferMeSP := mustEval(t, m, w, parallel.Config{DP: 4, TP: 8, MegatronSP: true}, mespOpts(GMap))
	waferTEMP := mustEval(t, m, w, parallel.Config{DP: 4, TATP: 8}, TEMPOptions())
	if !(waferTEMP.StepTime < gpu.StepTime) {
		t.Errorf("Wafer+TEMP (%v) should beat GPU+MeSP (%v)", waferTEMP.StepTime, gpu.StepTime)
	}
	if !(gpu.StepTime < waferMeSP.StepTime) {
		t.Errorf("GPU+MeSP (%v) should beat Wafer+MeSP (%v) — hybrid parallelism mismatched to mesh",
			gpu.StepTime, waferMeSP.StepTime)
	}
}

// TestMemoryConservation: per-die memory scales down as sharding
// dimensions grow.
func TestMemoryConservation(t *testing.T) {
	m, w := temp825()
	m8 := MemoryPerDie(m, w, (parallel.Config{DP: 4, TATP: 8}).Normalize(), TEMPOptions(), m.Layers)
	m16 := MemoryPerDie(m, w, (parallel.Config{DP: 2, TATP: 16}).Normalize(), TEMPOptions(), m.Layers)
	if m16.Weights >= m8.Weights {
		t.Errorf("weights per die should shrink with TATP: %v vs %v", m16.Weights, m8.Weights)
	}
}

// TestEngineString covers the enum stringers.
func TestEngineString(t *testing.T) {
	if SMap.String() != "SMap" || GMap.String() != "GMap" || TCMEEngine.String() != "TCME" {
		t.Error("engine strings wrong")
	}
	if RecomputeNone.String() != "none" || RecomputeSelective.String() != "selective" || RecomputeFull.String() != "full" {
		t.Error("recompute strings wrong")
	}
}

// TestEvaluateRejectsBadConfig: degree mismatches surface as errors.
func TestEvaluateRejectsBadConfig(t *testing.T) {
	m, w := temp825()
	if _, err := Evaluate(m, w, parallel.Config{DP: 3}, TEMPOptions()); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestDebugMatchesEvaluation checks Debug prints the layer terms of
// the evaluation Evaluate runs. Each case rebuilds every placement
// family its engine considers with stateFor and a fresh evaluator and
// keeps the faster, the rectangular family winning ties. The cases are
// every wsc-4x8 configuration under each engine, a two-stage pipeline
// (the DP all-reduce covers one stage's layers) and DP=32 at batch 64
// (the micro-batch clamps to one sequence per rank).
func TestDebugMatchesEvaluation(t *testing.T) {
	m, w := temp825()
	topo := mesh.FromWafer(w)
	type debugCase struct {
		m   model.Config
		cfg parallel.Config
		o   Options
	}
	var cases []debugCase
	for _, cfg := range parallel.EnumerateConfigs(w.Dies(), true, 0) {
		for _, e := range []Engine{SMap, GMap, TCMEEngine} {
			o := TEMPOptions()
			o.Engine = e
			cases = append(cases, debugCase{m, cfg, o})
		}
	}
	staged := TEMPOptions()
	staged.Wafers = 2
	small := m
	small.Batch = 64
	cases = append(cases,
		debugCase{m, parallel.Config{DP: 4, TATP: 8, PP: 2}, staged},
		debugCase{small, parallel.Config{DP: 32}, TEMPOptions()})

	linearWins := 0
	for _, c := range cases {
		cfg := c.cfg.Normalize()
		tcmeOrders := c.o.Engine == TCMEEngine
		families := []bool{false, true}
		if !tcmeOrders {
			families = []bool{c.o.Engine == SMap}
		}
		var best *evaluator
		var bestStep float64
		bestLinear := false
		for _, linear := range families {
			st, err := stateFor(topo, cfg, linear, tcmeOrders)
			if err != nil {
				continue
			}
			ev := &evaluator{m: c.m, w: w, cfg: cfg, o: c.o, topo: topo, st: st, graph: model.BlockGraph(c.m)}
			b, err := ev.run()
			if err != nil {
				t.Fatalf("%s %s: %v", cfg, c.o.Engine, err)
			}
			if best == nil || b.StepTime < bestStep {
				best, bestStep, bestLinear = ev, b.StepTime, linear
			}
		}
		if best == nil {
			continue
		}
		if tcmeOrders && bestLinear {
			linearWins++
		}
		if got, want := Debug(c.m, w, c.cfg, c.o), best.terms.String(); got != want {
			t.Errorf("%s batch %d %s: Debug\n  %s\nwant the evaluated terms\n  %s", cfg, c.m.Batch, c.o.Engine, got, want)
		}
	}
	if linearWins == 0 {
		t.Error("the linear family never won under TEMP; the cases no longer cover its terms")
	}
	t.Logf("%d cases, linear family won %d under TEMP", len(cases), linearWins)
}
