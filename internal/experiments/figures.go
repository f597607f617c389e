package experiments

import (
	"fmt"
	"math"

	"temp/internal/baselines"
	"temp/internal/cost"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/sim"
	"temp/internal/stream"
	"temp/internal/unit"
)

// evalModels returns the Table II models (or the override set from
// the registry); quick mode keeps the three spanning sizes so
// CI-grade runs stay fast.
func evalModels(quick bool) []model.Config {
	if ms := overriddenModels(); ms != nil {
		return ms
	}
	if quick {
		return []model.Config{model.GPT3_6_7B(), model.Llama3_70B(), model.GPT3_175B()}
	}
	return model.EvaluationModels()
}

// Fig04Breakdown regenerates Fig. 4(b): the share of training time
// Megatron-style execution spends in collective communication, and
// the D2D bandwidth utilization it achieves.
func Fig04Breakdown(quick bool) (*Table, error) {
	t := &Table{
		ID:      "fig4b",
		Title:   "Megatron training-time breakdown and D2D utilization on the WSC",
		Headers: []string{"model", "collective%", "bw-util%"},
	}
	w := evalWafer()
	models := append(evalModels(quick), model.DeepSeek7B())
	if !quick {
		models = append(models, model.DeepSeek67B(), model.DeepSeekV2_236B())
	}
	var collSum float64
	var n int
	for _, m := range models {
		r, err := baselines.Best(baselines.Megatron1(cost.SMap), m, w)
		if err != nil {
			return nil, err
		}
		collPct := r.CommTime() / r.StepTime * 100
		t.AddRow(m.Name, f1(collPct), f1(r.BWUtilization*100))
		collSum += collPct
		n++
	}
	t.AddNote("mean collective share %.0f%% (paper: ~40%%); utilization stays low while compute stalls", collSum/float64(n))
	return t, nil
}

// Fig04Memory regenerates Fig. 4(c): Megatron memory against the
// replication-free ideal, with the per-die capacity line.
func Fig04Memory() (*Table, error) {
	t := &Table{
		ID:      "fig4c",
		Title:   "Memory overhead of Megatron vs replication-free ideal (per die)",
		Headers: []string{"model", "system", "weights", "grads", "optim", "acts", "total", "OOM"},
	}
	w := evalWafer()
	for _, m := range []model.Config{model.DeepSeek7B(), model.Llama2_70B(), model.Bloom176B()} {
		mega := cost.MemoryPerDie(m, w, (parallel.Config{DP: 4, TP: 8}).Normalize(),
			cost.Options{Engine: cost.GMap, Recompute: cost.RecomputeNone, Microbatch: 1, NoFlashAttention: true}, m.Layers)
		ideal := cost.MemoryPerDie(m, w, (parallel.Config{DP: 2, TATP: 16}).Normalize(),
			cost.TEMPOptions(), m.Layers)
		for _, row := range []struct {
			name string
			mb   cost.MemoryBreakdown
		}{{"Megatron", mega}, {"Ideal", ideal}} {
			t.AddRow(m.Name, row.name, gb(row.mb.Weights), gb(row.mb.Grads),
				gb(row.mb.Optimizer), gb(row.mb.Activations), gb(row.mb.Total()),
				fmt.Sprintf("%v", row.mb.OOM()))
		}
	}
	t.AddNote("per-die capacity %s; replication pushes Megatron past it on the large models", gb(w.Die.MemCapacity()))
	return t, nil
}

// Fig05Challenges regenerates Fig. 5(a)/(b): the 7× tail-latency
// disparity of a logical ring on a chain, and the >2× contention
// penalty of colliding routes.
func Fig05Challenges() (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Deployment challenges: tail latency and traffic contention",
		Headers: []string{"effect", "value"},
	}
	link := hw.TableID2D()
	line := mesh.New(1, 8, link)
	// Tail latency: logical neighbors 0↔7 are 7 physical hops apart.
	naive := stream.RingSchedule(8)
	orderDies := mesh.Rect{R0: 0, C0: 0, R1: 0, C1: 7}.DiesOn(line)
	maxHops := 0
	for _, sends := range naive.Sends {
		for _, snd := range sends {
			p := line.Route(orderDies[snd.From], orderDies[snd.To])
			if p.Hops() > maxHops {
				maxHops = p.Hops()
			}
		}
	}
	t.AddRow("naive-ring worst hop count on 8-die chain", fmt.Sprintf("%d (paper: 7)", maxHops))

	grid := mesh.New(2, 4, link)
	bytes := 64 * unit.MB
	mk := func(src, dst mesh.DieID) mesh.Flow {
		return mesh.Flow{Src: src, Dst: dst, Bytes: bytes, Route: grid.RouteXY(src, dst)}
	}
	solo := grid.Time(mesh.Phase{Flows: []mesh.Flow{mk(0, 2)}})
	both := grid.Time(mesh.Phase{Flows: []mesh.Flow{mk(0, 2), mk(1, 3)}})
	t.AddRow("contention latency inflation (shared link)", fmt.Sprintf("%.2fx (paper: >2x)", both.Serialization/solo.Serialization))
	return t, nil
}

// Fig07Utilization regenerates Fig. 7(c): compute utilization when
// TATP groups map to physical rings versus non-contiguous placements,
// as the wafer grows.
func Fig07Utilization() (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Compute utilization: physical-ring vs non-contiguous TATP groups",
		Headers: []string{"model", "grid", "ring util%", "scattered util%", "drop"},
	}
	grids := [][2]int{{4, 4}, {4, 8}, {8, 8}}
	models := []model.Config{model.Llama2_7B(), model.Llama2_30B(), model.Llama2_70B()}
	scatterOpts := cost.TEMPOptions()
	scatterOpts.Engine = cost.SMap
	scatterOpts.DisableStreamOverlap = true
	// Ring/scattered pairs for every model×grid, fanned out in one
	// sweep; results come back in input order.
	var jobs []engine.Job
	for _, m := range models {
		for _, g := range grids {
			w := hw.WaferWithGrid(g[0], g[1])
			cfg := parallel.Config{DP: w.Dies() / 8, TATP: 8}
			jobs = append(jobs,
				engine.Job{Model: m, Wafer: w, Config: cfg, Opts: cost.TEMPOptions()},
				engine.Job{Model: m, Wafer: w, Config: cfg, Opts: scatterOpts})
		}
	}
	results := engine.Sweep(jobs)
	i := 0
	for _, m := range models {
		for _, g := range grids {
			ring, scat := results[i], results[i+1]
			i += 2
			if ring.Err != nil {
				return nil, ring.Err
			}
			if scat.Err != nil {
				return nil, scat.Err
			}
			ru := ring.Breakdown.ComputeTime / ring.Breakdown.StepTime * 100
			su := scat.Breakdown.ComputeTime / scat.Breakdown.StepTime * 100
			t.AddRow(m.Name, fmt.Sprintf("%dx%d", g[0], g[1]), f1(ru), f1(su), f1(ru-su))
		}
	}
	t.AddNote("topology mismatch costs up to ~30%% utilization at scale (paper Fig. 7(c))")
	return t, nil
}

// Fig09SweetSpot regenerates Fig. 9: throughput, memory and power as
// the TATP degree grows for one GPT-3 175B layer under canonical
// weight streaming.
func Fig09SweetSpot() (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "TATP parallel-degree sweet spot (one GPT-3 175B layer)",
		Headers: []string{"N", "tput tok/s", "norm mem/die", "power W", "tok/s/W"},
	}
	mm := model.GPT3_175B()
	mm.Layers = 1
	o := cost.TEMPOptions()
	o.ForceStreamWeights = true
	type pt struct {
		n    int
		tput float64
	}
	degrees := []int{2, 4, 8, 16, 32, 64}
	jobs := make([]engine.Job, len(degrees))
	for i, n := range degrees {
		rows, cols := 2, n/2
		if n == 2 {
			rows, cols = 1, 2
		}
		jobs[i] = engine.Job{Model: mm, Wafer: hw.WaferWithGrid(rows, cols),
			Config: parallel.Config{TATP: n}, Opts: o}
	}
	var series []pt
	for i, r := range engine.Sweep(jobs) {
		if r.Err != nil {
			return nil, r.Err
		}
		b, n := r.Breakdown, degrees[i]
		t.AddRow(fmt.Sprintf("%d", n), f1(b.ThroughputTokens), gb(b.Memory.Total()),
			f1(b.Power), f2(b.PowerEfficiency))
		series = append(series, pt{n, b.ThroughputTokens})
	}
	best := series[0]
	for _, p := range series {
		if p.tput > best.tput {
			best = p
		}
	}
	t.AddNote("throughput sweet spot at N=%d (paper: 8–16, declining beyond)", best.n)
	return t, nil
}

// compareRows renders one sim.CompareAll result set.
func compareRows(t *Table, m model.Config, rs []baselines.Result) {
	var tempRes baselines.Result
	for _, r := range rs {
		if r.System == "TEMP" {
			tempRes = r
		}
	}
	for _, r := range rs {
		status := "ok"
		speed := "-"
		if !r.Feasible {
			status = "OOM"
		} else if tempRes.Feasible && r.System != "TEMP" {
			speed = f2(r.StepTime / tempRes.StepTime)
		}
		t.AddRow(m.Name, r.System, r.Config.String(), status,
			f3(r.StepTime), f3(r.ComputeTime), f3(r.CommTime()),
			gb(r.Memory.Total()), speed)
	}
}

// Fig13Training regenerates Fig. 13: training latency breakdown and
// peak memory for the six baselines and TEMP across the Table II
// models, each at its best configuration.
func Fig13Training(quick bool) (*Table, error) {
	t := &Table{
		ID:    "fig13",
		Title: "Training performance: six baselines vs TEMP (best config each)",
		Headers: []string{"model", "system", "config", "status", "step(s)",
			"comp(s)", "comm(s)", "mem/die", "TEMP speedup"},
	}
	w := evalWafer()
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, m := range evalModels(quick) {
		rs, err := sim.CompareAll(m, w)
		if err != nil {
			return nil, err
		}
		compareRows(t, m, rs)
		var temp baselines.Result
		for _, r := range rs {
			if r.System == "TEMP" {
				temp = r
			}
		}
		for _, r := range rs {
			if r.System != "TEMP" && r.Feasible && temp.Feasible {
				sums[r.System] += r.StepTime / temp.StepTime
				counts[r.System]++
			}
		}
	}
	var avg float64
	var n int
	for _, s := range baselines.Six() {
		if counts[s.Name] > 0 {
			mean := sums[s.Name] / float64(counts[s.Name])
			t.AddNote("TEMP speedup over %s: %.2fx (feasible models only)", s.Name, mean)
			avg += mean
			n++
		}
	}
	if n > 0 {
		t.AddNote("average TEMP speedup %.2fx (paper: 1.7x average)", avg/float64(n))
	}
	return t, nil
}

// Fig14Power regenerates Fig. 14: power breakdown and power
// efficiency for the same comparison.
func Fig14Power(quick bool) (*Table, error) {
	t := &Table{
		ID:    "fig14",
		Title: "Power breakdown and power efficiency",
		Headers: []string{"model", "system", "power W", "comp%", "comm%", "dram%",
			"tok/s/W", "vs TEMP"},
	}
	w := evalWafer()
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, m := range evalModels(quick) {
		rs, err := sim.CompareAll(m, w)
		if err != nil {
			return nil, err
		}
		var temp baselines.Result
		for _, r := range rs {
			if r.System == "TEMP" {
				temp = r
			}
		}
		for _, r := range rs {
			if !r.Feasible {
				t.AddRow(m.Name, r.System, "OOM", "-", "-", "-", "-", "-")
				continue
			}
			total := r.EnergyCompute + r.EnergyComm + r.EnergyDRAM
			rel := "-"
			if r.System != "TEMP" && temp.Feasible {
				rel = f2(temp.PowerEfficiency / r.PowerEfficiency)
				sums[r.System] += temp.PowerEfficiency / r.PowerEfficiency
				counts[r.System]++
			}
			t.AddRow(m.Name, r.System, f1(r.Power),
				f1(r.EnergyCompute/total*100), f1(r.EnergyComm/total*100),
				f1(r.EnergyDRAM/total*100), f2(r.PowerEfficiency), rel)
		}
	}
	for _, s := range baselines.Six() {
		if counts[s.Name] > 0 {
			t.AddNote("TEMP power-efficiency gain over %s: %.2fx", s.Name, sums[s.Name]/float64(counts[s.Name]))
		}
	}
	return t, nil
}

// Fig15GPU regenerates Fig. 15: the matched-peak GPU cluster against
// the wafer under MeSP and TEMP.
func Fig15GPU(quick bool) (*Table, error) {
	t := &Table{
		ID:      "fig15",
		Title:   "GPU cluster vs WSC at matched FP16 peak (32 devices)",
		Headers: []string{"model", "system", "step(s)", "tput tok/s", "vs GPU"},
	}
	w := hw.ComparisonWafer32()
	c := hw.A100Cluster()
	var sGPUvMeSP, sTEMPvGPU float64
	var n int
	for _, m := range evalModels(quick) {
		gpu, err := baselines.BestCluster(m, c)
		if err != nil {
			return nil, err
		}
		waferMeSP, err := baselines.Best(baselines.MeSP(cost.GMap), m, w)
		if err != nil {
			return nil, err
		}
		waferTEMP, err := baselines.Best(baselines.TEMP(), m, w)
		if err != nil {
			return nil, err
		}
		rows := []struct {
			name string
			r    baselines.Result
		}{{"GPU+MeSP", gpu}, {"Wafer+MeSP", waferMeSP}, {"Wafer+TEMP", waferTEMP}}
		for _, row := range rows {
			rel := "-"
			if row.r.Feasible && gpu.Feasible {
				rel = f2(gpu.StepTime / row.r.StepTime)
			}
			status := f3(row.r.StepTime)
			if !row.r.Feasible {
				status = "OOM"
			}
			t.AddRow(m.Name, row.name, status, f1(row.r.ThroughputTokens), rel)
		}
		if gpu.Feasible && waferMeSP.Feasible && waferTEMP.Feasible {
			sGPUvMeSP += waferMeSP.StepTime / gpu.StepTime
			sTEMPvGPU += gpu.StepTime / waferTEMP.StepTime
			n++
		}
	}
	if n > 0 {
		t.AddNote("Wafer+TEMP speedup over GPU+MeSP: %.2fx (paper: 1.16x)", sTEMPvGPU/float64(n))
		t.AddNote("GPU+MeSP speedup over Wafer+MeSP: %.2fx (paper: ~1.09x)", sGPUvMeSP/float64(n))
	}
	return t, nil
}

// Fig16Ablation regenerates Fig. 16: Base (FSDP+SMap) → +TATP →
// +TATP+TCME throughput ladder.
func Fig16Ablation(quick bool) (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Ablation: Base, Base+TATP, Base+TATP+TCME",
		Headers: []string{"model", "base tok/s", "+TATP", "+TATP+TCME", "TATP gain", "TCME gain"},
	}
	w := evalWafer()
	var gTATP, gTCME float64
	var n int
	for _, m := range evalModels(quick) {
		rs, err := sim.Ablation(m, w)
		if err != nil {
			return nil, err
		}
		base, tatp, full := rs[0], rs[1], rs[2]
		t.AddRow(m.Name, f1(base.ThroughputTokens), f1(tatp.ThroughputTokens),
			f1(full.ThroughputTokens),
			f2(tatp.ThroughputTokens/base.ThroughputTokens),
			f2(full.ThroughputTokens/tatp.ThroughputTokens))
		gTATP += tatp.ThroughputTokens / base.ThroughputTokens
		gTCME += full.ThroughputTokens / tatp.ThroughputTokens
		n++
	}
	t.AddNote("mean +TATP gain %.2fx (paper 1.21x); mean +TCME gain %.2fx (paper 1.14x)",
		gTATP/float64(n), gTCME/float64(n))
	return t, nil
}

// Fig17Mixed regenerates Fig. 17: Llama2 7B throughput across
// (DP,TP,SP,TATP) configurations at short and long sequence lengths,
// all under the TCME engine.
func Fig17Mixed() (*Table, error) {
	t := &Table{
		ID:      "fig17",
		Title:   "Mixed parallelism on Llama2 7B (TCME engine)",
		Headers: []string{"seq", "config", "status", "tput tok/s", "norm"},
	}
	w := evalWafer()
	for _, scenario := range []struct {
		seq, batch int
	}{{2048, 128}, {16384, 32}} {
		m := model.Llama2_7B().WithSeq(scenario.seq, scenario.batch)
		cfgs := parallel.EnumerateConfigs(w.Dies(), true, 0)
		jobs := make([]engine.Job, len(cfgs))
		for i, cfg := range cfgs {
			jobs[i] = engine.Job{Model: m, Wafer: w, Config: cfg, Opts: cost.TEMPOptions()}
		}
		type res struct {
			cfg  parallel.Config
			b    cost.Breakdown
			feas bool
		}
		var all []res
		var bestTput, bestNoTATP float64
		var bestCfg, bestNoTATPCfg parallel.Config
		for i, r := range engine.Sweep(jobs) {
			if r.Err != nil {
				continue
			}
			b, cfg := r.Breakdown, cfgs[i]
			feas := !b.OOM()
			all = append(all, res{cfg, b, feas})
			if feas && b.ThroughputTokens > bestTput {
				bestTput, bestCfg = b.ThroughputTokens, cfg
			}
			if feas && cfg.TATP == 1 && b.ThroughputTokens > bestNoTATP {
				bestNoTATP, bestNoTATPCfg = b.ThroughputTokens, cfg
			}
		}
		for _, r := range all {
			status := "ok"
			norm := "-"
			if !r.feas {
				status = "OOM"
			} else if bestTput > 0 {
				norm = f3(r.b.ThroughputTokens / bestTput)
			}
			t.AddRow(fmt.Sprintf("%d", scenario.seq), r.cfg.String(), status,
				f1(r.b.ThroughputTokens), norm)
		}
		t.AddNote("S=%d best %s; best without TATP %s (%.2fx slower)",
			scenario.seq, bestCfg, bestNoTATPCfg, bestTput/math.Max(bestNoTATP, 1))
	}
	return t, nil
}

// Fig18Convergence regenerates Fig. 18: the optimal TATP degree
// across GPT-3 sizes and sequence lengths.
func Fig18Convergence(quick bool) (*Table, error) {
	t := &Table{
		ID:      "fig18",
		Title:   "Optimal TATP degree across model scale and sequence length",
		Headers: []string{"model", "seq", "best config", "tatp", "gain vs no-TATP"},
	}
	w := evalWafer()
	models := []model.Config{model.GPT3_6_7B(), model.GPT3_76B(), model.GPT3_175B()}
	if quick {
		models = models[:2]
	}
	for _, base := range models {
		for _, seq := range []int{2048, 16384} {
			batch := 128
			if seq > 8000 {
				batch = 32
			}
			m := base.WithSeq(seq, batch)
			cfgs := parallel.EnumerateConfigs(w.Dies(), true, 0)
			jobs := make([]engine.Job, len(cfgs))
			for i, cfg := range cfgs {
				jobs[i] = engine.Job{Model: m, Wafer: w, Config: cfg, Opts: cost.TEMPOptions()}
			}
			var bestTput, bestNoTATP float64
			var bestCfg parallel.Config
			for i, r := range engine.Sweep(jobs) {
				if r.Err != nil || r.Breakdown.OOM() {
					continue
				}
				b, cfg := r.Breakdown, cfgs[i]
				if b.ThroughputTokens > bestTput {
					bestTput, bestCfg = b.ThroughputTokens, cfg
				}
				if cfg.TATP == 1 && b.ThroughputTokens > bestNoTATP {
					bestNoTATP = b.ThroughputTokens
				}
			}
			gain := "-"
			if bestNoTATP > 0 {
				gain = f2(bestTput / bestNoTATP)
			}
			t.AddRow(base.Name, fmt.Sprintf("%d", seq), bestCfg.String(),
				fmt.Sprintf("%d", bestCfg.Normalize().TATP), gain)
		}
	}
	t.AddNote("paper: optimal TATP degree consistently 8 or 16, gains 2.06–2.29x")
	return t, nil
}

// Fig19MultiWafer regenerates Fig. 19: multi-wafer scaling of the
// large models with pipeline parallelism across wafers.
func Fig19MultiWafer(quick bool) (*Table, error) {
	t := &Table{
		ID:      "fig19",
		Title:   "Multi-wafer training of large models",
		Headers: []string{"model", "wafers", "system", "config", "step(s)", "bubble%", "vs TEMP"},
	}
	w := evalWafer()
	cases := []struct {
		m      model.Config
		wafers int
	}{
		{model.GPT3_175B(), 2},
		{model.Grok1_341B(), 4},
		{model.Llama3_405B(), 4},
		{model.GPT3_504B(), 6},
	}
	if quick {
		cases = cases[:2]
	}
	systems := []baselines.System{
		baselines.Megatron1(cost.SMap), baselines.MeSP(cost.GMap),
		baselines.FSDP(cost.GMap), baselines.TEMP(),
	}
	for _, tc := range cases {
		var temp baselines.Result
		results := make([]baselines.Result, 0, len(systems))
		for _, s := range systems {
			r, err := sim.MultiWafer(s, tc.m, w, tc.wafers)
			if err != nil {
				continue
			}
			results = append(results, r)
			if s.Name == "TEMP" {
				temp = r
			}
		}
		for _, r := range results {
			rel := "-"
			if r.System != "TEMP" && temp.Feasible {
				rel = f2(r.StepTime / temp.StepTime)
			}
			t.AddRow(tc.m.Name, fmt.Sprintf("%d", tc.wafers), r.System, r.Config.String(),
				f3(r.StepTime), f1(r.BubbleTime/r.StepTime*100), rel)
		}
	}
	t.AddNote("paper: TEMP outperforms baselines 1.2–1.6x and cuts pipeline bubbles via lower PP")
	return t, nil
}

// Fig20Fault regenerates Fig. 20(b)/(c): normalized throughput under
// link and core fault injection with TEMP's adaptive tolerance.
func Fig20Fault(quick bool) (*Table, error) {
	t := &Table{
		ID:      "fig20",
		Title:   "Fault tolerance: normalized throughput vs fault rate",
		Headers: []string{"fault", "rate", "norm tput"},
	}
	w := evalWafer()
	m := model.GPT3_6_7B()
	cfg := parallel.Config{DP: 4, TATP: 8}
	o := cost.TEMPOptions()
	trials := 8
	if quick {
		trials = 4
	}
	linkRates := []float64{0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.6, 0.8}
	var cliffAt float64 = -1
	prev := 1.0
	for _, r := range linkRates {
		v, err := fault.NormalizedThroughput(m, w, cfg, o, fault.Injection{LinkRate: r}, trials, 42)
		if err != nil {
			return nil, err
		}
		t.AddRow("link", f2(r), f3(v))
		if cliffAt < 0 && prev-v > 0.4 {
			cliffAt = r
		}
		prev = v
	}
	coreRates := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25}
	var at25 float64
	for _, r := range coreRates {
		v, err := fault.NormalizedThroughput(m, w, cfg, o, fault.Injection{CoreRate: r, CoresPerDie: 64}, trials, 43)
		if err != nil {
			return nil, err
		}
		t.AddRow("core", f2(r), f3(v))
		if r == 0.25 {
			at25 = v
		}
	}
	if cliffAt >= 0 {
		t.AddNote("link-fault throughput cliff near %.0f%% (paper: 35%%)", cliffAt*100)
	}
	t.AddNote("core faults degrade gracefully: %.0f%% throughput at 25%% core failures (paper: ~80%%)", at25*100)
	return t, nil
}
