package fault

import (
	"math/rand"
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

func TestApplyLinkFaultsBundled(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer()).Clone()
	rng := rand.New(rand.NewSource(1))
	Injection{LinkRate: 0.3}.Apply(topo, rng)
	// Directions must fail together.
	for _, l := range topo.Links() {
		if !topo.LinkAlive(mesh.Link{From: l.To, To: l.From}) {
			t.Fatalf("link %v alive but reverse dead", l)
		}
	}
	rep := Localize(topo)
	if rep.DeadLinks == 0 {
		t.Error("30% injection killed no links")
	}
}

func TestApplyCoreFaults(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer()).Clone()
	rng := rand.New(rand.NewSource(2))
	Injection{CoreRate: 0.2, CoresPerDie: 64}.Apply(topo, rng)
	rep := Localize(topo)
	if rep.MeanCapacity >= 0.95 || rep.MeanCapacity <= 0.6 {
		t.Errorf("mean capacity %v implausible for 20%% core faults", rep.MeanCapacity)
	}
}

func TestLocalizeHealthy(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer())
	rep := Localize(topo)
	if rep.DeadLinks != 0 || rep.DeadDies != 0 || !rep.Connected || rep.MeanCapacity != 1 {
		t.Errorf("healthy wafer localization wrong: %+v", rep)
	}
}

func TestEvaluateHealthyMatchesBaseline(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 4, TATP: 8}
	o := cost.TEMPOptions()
	out := Evaluate(m, w, cfg, o, Injection{}, rand.New(rand.NewSource(3)))
	if !out.Functional {
		t.Fatal("healthy evaluation not functional")
	}
	base, err := cost.Evaluate(m, w, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	ratio := out.Breakdown.ThroughputTokens / base.ThroughputTokens
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("fault-free throughput ratio = %v, want ~1", ratio)
	}
}

// TestCoreFaultsDegradeGracefully reproduces Fig. 20(c): ~25% core
// faults retain the bulk of throughput under adaptive re-balancing.
func TestCoreFaultsDegradeGracefully(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 4, TATP: 8}
	v, err := NormalizedThroughput(m, w, cfg, cost.TEMPOptions(),
		Injection{CoreRate: 0.25, CoresPerDie: 64}, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.6 || v > 0.9 {
		t.Errorf("throughput at 25%% core faults = %.2f, want ~0.7–0.8 (paper ~0.8)", v)
	}
}

// TestLinkFaultCliff reproduces Fig. 20(b): moderate link faults
// degrade gradually; heavy link faults collapse throughput.
func TestLinkFaultCliff(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 4, TATP: 8}
	o := cost.TEMPOptions()
	low, err := NormalizedThroughput(m, w, cfg, o, Injection{LinkRate: 0.1}, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	high, err := NormalizedThroughput(m, w, cfg, o, Injection{LinkRate: 0.6}, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if low < 0.5 {
		t.Errorf("10%% link faults already collapse throughput: %.2f", low)
	}
	if high > 0.5*low {
		t.Errorf("60%% link faults should collapse throughput: low=%.2f high=%.2f", low, high)
	}
}

func TestAdaptiveRebalanceBeatsLockstep(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	topoA := mesh.FromWafer(w).Clone()
	topoB := mesh.FromWafer(w).Clone()
	rng := rand.New(rand.NewSource(21))
	inj := Injection{CoreRate: 0.2, CoresPerDie: 64}
	inj.Apply(topoA, rng)
	// Mirror the same faults.
	for d := 0; d < topoA.Dies(); d++ {
		topoB.SetCoreFraction(mesh.DieID(d), topoA.CoreFraction(mesh.DieID(d)))
	}
	cfg := (parallel.Config{DP: 4, TATP: 8}).Normalize()
	place, err := parallel.Place(cfg, topoA)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := cost.TEMPOptions()
	adaptive.AdaptiveRebalance = true
	lockstep := cost.TEMPOptions()
	ba, err := cost.EvaluateOnWith("", m, w, cfg, adaptive, topoA, place)
	if err != nil {
		t.Fatal(err)
	}
	placeB, err := parallel.Place(cfg, topoB)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := cost.EvaluateOnWith("", m, w, cfg, lockstep, topoB, placeB)
	if err != nil {
		t.Fatal(err)
	}
	if ba.StepTime >= bl.StepTime {
		t.Errorf("adaptive re-balance (%v) not faster than lock-step (%v)", ba.StepTime, bl.StepTime)
	}
}

func TestDisconnectedIsNonFunctional(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	out := Evaluate(m, w, parallel.Config{DP: 4, TATP: 8}, cost.TEMPOptions(),
		Injection{LinkRate: 0.95}, rand.New(rand.NewSource(5)))
	if out.Functional {
		t.Error("95% link faults should disconnect the fabric")
	}
}
