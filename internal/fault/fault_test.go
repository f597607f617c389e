package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"temp/internal/baselines"
	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

func TestApplyLinkFaultsBundled(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer()).Clone()
	rng := rand.New(rand.NewSource(1))
	if capacity := (Injection{LinkRate: 0.3}).Apply(topo, rng); capacity != 1 {
		t.Errorf("link-only injection returned core capacity %v, want 1", capacity)
	}
	// Directions must fail together.
	for id := 0; id < topo.NumLinks(); id++ {
		l := topo.LinkByID(id)
		if topo.LinkAlive(l) && !topo.LinkAlive(mesh.Link{From: l.To, To: l.From}) {
			t.Fatalf("link %v alive but reverse dead", l)
		}
	}
	rep := Localize(topo, 1)
	if rep.DeadLinks == 0 {
		t.Error("30% injection killed no links")
	}
}

// TestApplyCoreFaults: core loss is a capacity scalar, not topology
// state. A mask that kills no die leaves the mesh healthy, so it
// interns to the shared instance; a die whose cores all fail dies.
func TestApplyCoreFaults(t *testing.T) {
	w := hw.EvaluationWafer()
	topo := mesh.FromWafer(w).Clone()
	rng := rand.New(rand.NewSource(2))
	capacity := Injection{CoreRate: 0.2, CoresPerDie: 64}.Apply(topo, rng)
	if capacity >= 0.95 || capacity <= 0.6 {
		t.Errorf("mean capacity %v implausible for 20%% core faults", capacity)
	}
	if topo.Intern() != mesh.FromWafer(w) {
		t.Error("core-only mask did not intern to the shared healthy mesh")
	}
	if rep := Localize(topo, capacity); rep.MeanCapacity != capacity || rep.DeadDies != 0 {
		t.Errorf("core-only localization wrong: %+v", rep)
	}

	dead := mesh.FromWafer(w).Clone()
	if capacity := (Injection{CoreRate: 1, CoresPerDie: 4}).Apply(dead, rng); capacity != 0 {
		t.Errorf("all cores dead: capacity %v, want 0", capacity)
	}
	for d := 0; d < dead.Dies(); d++ {
		if dead.DieAlive(mesh.DieID(d)) {
			t.Fatalf("all cores dead but die %d alive", d)
		}
	}
}

func TestLocalizeHealthy(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer())
	rep := Localize(topo, 1)
	if rep.DeadLinks != 0 || rep.DeadDies != 0 || !rep.Connected || rep.MeanCapacity != 1 {
		t.Errorf("healthy wafer localization wrong: %+v", rep)
	}
}

// TestEvaluateHealthyMatchesBaseline pins the zero-fault price against
// cost.Evaluate. Under SMap and GMap both price the engine's one
// placement family on the shared healthy mesh, so the breakdowns are
// bit-identical. Under TEMP the degraded path prices the rectangle
// family only, while cost.Evaluate keeps the faster of rectangles and
// linear runs: the zero-fault price is never faster, and at
// (DP=4,TATP=8), where linear runs win, the throughput ratio is exactly
// 0.9977169061760276, the zero-fault cell of campaign_golden.json.
func TestEvaluateHealthyMatchesBaseline(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 4, TATP: 8}
	for _, e := range []cost.Engine{cost.SMap, cost.GMap, cost.TCMEEngine} {
		o := cost.TEMPOptions()
		o.Engine = e
		out := Evaluate(m, w, cfg, o, Injection{}, rand.New(rand.NewSource(3)))
		if !out.Functional {
			t.Fatalf("%s: healthy evaluation not functional", e)
		}
		base, err := cost.Evaluate(m, w, cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		if e != cost.TCMEEngine {
			if !reflect.DeepEqual(out.Breakdown, base) {
				t.Errorf("%s: zero-fault breakdown\n%+v\ndiffers from cost.Evaluate\n%+v", e, out.Breakdown, base)
			}
			continue
		}
		if out.Breakdown.StepTime < base.StepTime {
			t.Errorf("TEMP zero-fault step %v faster than cost.Evaluate's %v", out.Breakdown.StepTime, base.StepTime)
		}
		if ratio := out.Breakdown.ThroughputTokens / base.ThroughputTokens; ratio != 0.9977169061760276 {
			t.Errorf("TEMP zero-fault throughput ratio = %v, want 0.9977169061760276", ratio)
		}
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

// TestCoreCapacitySlowsCompute pins the capacity argument of the
// degraded price. On the shared healthy mesh a mapping never prices
// faster as the surviving core capacity falls, at every engine and on
// both the analytic and replay tiers. A capacity outside (0, 1] is an
// error from cost.EvaluateOnWith and from Repair.
func TestCoreCapacitySlowsCompute(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	topo := mesh.FromWafer(w)
	cfg := parallel.Config{DP: 4, TATP: 8}
	for _, key := range []string{"", "replay"} {
		for _, e := range []cost.Engine{cost.SMap, cost.GMap, cost.TCMEEngine} {
			o := cost.TEMPOptions()
			o.Engine = e
			var full, prev float64
			for _, c := range []float64{1, 0.9, 0.75, 0.5} {
				b, err := cost.EvaluateOnWith(key, m, w, cfg, o, topo, c)
				if err != nil {
					t.Fatalf("%q/%s capacity %v: %v", key, e, c, err)
				}
				if b.StepTime < prev {
					t.Errorf("%q/%s: capacity %v prices %v, faster than %v at the capacity above",
						key, e, c, b.StepTime, prev)
				}
				if c == 1 {
					full = b.StepTime
				}
				prev = b.StepTime
			}
			if prev <= full {
				t.Errorf("%q/%s: half the cores (%v) not slower than all of them (%v)", key, e, prev, full)
			}
		}
	}
	for _, c := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := cost.EvaluateOnWith("", m, w, cfg, cost.TEMPOptions(), topo, c); err == nil {
			t.Errorf("EvaluateOnWith priced capacity %v without error", c)
		}
		if _, err := Repair(m, w, cfg, cost.TEMPOptions(), topo, c, RepairOptions{}); err == nil {
			t.Errorf("Repair accepted capacity %v", c)
		}
	}
}

// TestDeadLinkNeverSpeedsUpBaselines is a metamorphic check of
// degraded pricing: killing a link never makes a fixed mapping faster.
// For every zoo model and each of the six baseline systems, the
// system's best wsc-4x8 configuration is priced with
// cost.EvaluateOnWith on the healthy mesh and on each of the 52 meshes
// that lose one link bundle, and no faulted step may be faster. Pairs
// with no feasible configuration are skipped. TEMP is excluded: its
// TCME plans are not monotone in faults (ROADMAP item 4 lists 140
// single-dead-link meshes that price faster than healthy). -short
// checks two models.
func TestDeadLinkNeverSpeedsUpBaselines(t *testing.T) {
	w := hw.EvaluationWafer()
	healthy := mesh.FromWafer(w)
	type deadLink struct {
		link mesh.Link
		topo *mesh.Topology
	}
	var meshes []deadLink
	for id := 0; id < healthy.NumLinks(); id++ {
		if l := healthy.LinkByID(id); l.From < l.To {
			c := healthy.Clone()
			c.SetLinkAlive(l, false)
			meshes = append(meshes, deadLink{l, c.Intern()})
		}
	}
	if len(meshes) != 52 {
		t.Fatalf("%d link bundles on wsc-4x8, want 52", len(meshes))
	}
	models := model.Zoo()
	if testing.Short() {
		models = models[:2]
	}
	pairs, slower := 0, 0
	for _, m := range models {
		for _, sys := range baselines.Six() {
			best, err := baselines.Best(sys, m, w)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, sys.Name, err)
			}
			if !best.Feasible {
				continue
			}
			pairs++
			base, err := cost.EvaluateOnWith(sys.Backend, m, w, best.Config, sys.Opts, healthy, 1)
			if err != nil {
				t.Fatalf("%s/%s %s healthy: %v", m.Name, sys.Name, best.Config, err)
			}
			for _, d := range meshes {
				b, err := cost.EvaluateOnWith(sys.Backend, m, w, best.Config, sys.Opts, d.topo, 1)
				if err != nil {
					t.Errorf("%s/%s %s without link %v: %v", m.Name, sys.Name, best.Config, d.link, err)
				} else if b.StepTime < base.StepTime {
					t.Errorf("%s/%s %s without link %v: step %v, faster than healthy %v",
						m.Name, sys.Name, best.Config, d.link, b.StepTime, base.StepTime)
				} else if b.StepTime > base.StepTime {
					slower++
				}
			}
		}
	}
	if slower == 0 {
		t.Fatal("no dead link slowed any mapping")
	}
	t.Logf("%d model/system pairs, %d slower dead-link prices", pairs, slower)
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
