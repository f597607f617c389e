package cost_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"temp/internal/baselines"
	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// goldenBreakdown pins every float field of one pre-refactor
// cost.Evaluate result. JSON float64 round-trips are exact (shortest
// representation that parses back to the same bits), so equality
// checks below are bit-level.
type goldenBreakdown struct {
	Step      float64 `json:"step"`
	Compute   float64 `json:"compute"`
	Stream    float64 `json:"stream"`
	Coll      float64 `json:"coll"`
	P2P       float64 `json:"p2p"`
	Bubble    float64 `json:"bubble"`
	Optimizer float64 `json:"optimizer"`
	MemTotal  float64 `json:"mem_total"`
	EnergyCmp float64 `json:"energy_compute"`
	EnergyCom float64 `json:"energy_comm"`
	EnergyDRM float64 `json:"energy_dram"`
	Tput      float64 `json:"tput"`
	Power     float64 `json:"power"`
	PowerEff  float64 `json:"power_eff"`
	BWUtil    float64 `json:"bw_util"`
}

func toGolden(b cost.Breakdown) goldenBreakdown {
	return goldenBreakdown{
		Step: b.StepTime, Compute: b.ComputeTime, Stream: b.StreamTime,
		Coll: b.CollectiveTime, P2P: b.P2PTime, Bubble: b.BubbleTime,
		Optimizer: b.OptimizerTime, MemTotal: b.Memory.Total(),
		EnergyCmp: b.EnergyCompute, EnergyCom: b.EnergyComm, EnergyDRM: b.EnergyDRAM,
		Tput: b.ThroughputTokens, Power: b.Power, PowerEff: b.PowerEfficiency,
		BWUtil: b.BWUtilization,
	}
}

// goldenCase is one (wafer, model, system, config) evaluation captured
// before the backend refactor.
type goldenCase struct {
	Wafer     string          `json:"wafer"`
	Model     string          `json:"model"`
	System    string          `json:"system"`
	Config    string          `json:"config"`
	ConfigIdx int             `json:"config_idx"`
	Breakdown goldenBreakdown `json:"breakdown"`
}

const goldenPath = "testdata/analytic_golden.json"

// goldenWafers and goldenSystems enumerate every registered wafer and
// system constructor (mirroring the spec registries, which this
// package cannot import without a cycle).
func goldenWafers() []hw.Wafer {
	return []hw.Wafer{hw.EvaluationWafer(), hw.ReferenceWafer(), hw.ComparisonWafer32()}
}

func goldenSystems() []baselines.System {
	return append(baselines.Six(), baselines.TEMP())
}

// goldenConfigs picks a deterministic spread of each system's space:
// first, middle and last configuration.
func goldenConfigs(s baselines.System, dies int) ([]parallel.Config, []int) {
	space := s.Space(dies)
	if len(space) == 0 {
		return nil, nil
	}
	idxs := []int{0, len(space) / 2, len(space) - 1}
	var cfgs []parallel.Config
	var out []int
	seen := map[int]bool{}
	for _, i := range idxs {
		if seen[i] {
			continue
		}
		seen[i] = true
		cfgs = append(cfgs, space[i])
		out = append(out, i)
	}
	return cfgs, out
}

// generateGolden evaluates every case with the monolithic entry point.
func generateGolden(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	for _, w := range goldenWafers() {
		for _, m := range model.Zoo() {
			for _, sys := range goldenSystems() {
				cfgs, idxs := goldenConfigs(sys, w.Dies())
				for i, cfg := range cfgs {
					b, err := cost.Evaluate(m, w, cfg, sys.Opts)
					if err != nil {
						continue // unplaceable on this grid; not pinned
					}
					out = append(out, goldenCase{
						Wafer: w.Name, Model: m.Name, System: sys.Name,
						Config: cfg.String(), ConfigIdx: idxs[i],
						Breakdown: toGolden(b),
					})
				}
			}
		}
	}
	return out
}

// TestAnalyticGolden pins the analytic tier to the pre-refactor
// cost.Evaluate: every registered wafer × model × system (at a
// deterministic spread of each system's configuration space) must
// reproduce the captured breakdown bit-identically. Regenerate with
// UPDATE_COST_GOLDEN=1 go test ./internal/cost -run TestAnalyticGolden
// only when an intentional cost-model change lands.
func TestAnalyticGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not -short")
	}
	if os.Getenv("UPDATE_COST_GOLDEN") != "" {
		cases := generateGolden(t)
		buf, err := json.MarshalIndent(cases, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(cases), goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden file")
	}
	wafers := map[string]hw.Wafer{}
	for _, w := range goldenWafers() {
		wafers[w.Name] = w
	}
	models := map[string]model.Config{}
	for _, m := range model.Zoo() {
		models[m.Name] = m
	}
	systems := map[string]baselines.System{}
	for _, s := range goldenSystems() {
		systems[s.Name] = s
	}
	for _, gc := range cases {
		gc := gc
		t.Run(fmt.Sprintf("%s/%s/%s/%d", gc.Wafer, gc.Model, gc.System, gc.ConfigIdx), func(t *testing.T) {
			w, ok := wafers[gc.Wafer]
			if !ok {
				t.Fatalf("wafer %q no longer registered", gc.Wafer)
			}
			m, ok := models[gc.Model]
			if !ok {
				t.Fatalf("model %q no longer registered", gc.Model)
			}
			sys, ok := systems[gc.System]
			if !ok {
				t.Fatalf("system %q no longer registered", gc.System)
			}
			space := sys.Space(w.Dies())
			if gc.ConfigIdx >= len(space) {
				t.Fatalf("config index %d outside space of %d", gc.ConfigIdx, len(space))
			}
			cfg := space[gc.ConfigIdx]
			if cfg.String() != gc.Config {
				t.Fatalf("config at index %d is %s, golden captured %s", gc.ConfigIdx, cfg, gc.Config)
			}
			check := func(label string, b cost.Breakdown) {
				if got := toGolden(b); got != gc.Breakdown {
					t.Errorf("%s breakdown diverged from pre-refactor capture:\n got  %+v\n want %+v",
						label, got, gc.Breakdown)
				}
			}
			b, err := cost.Evaluate(m, w, cfg, sys.Opts)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			check("Evaluate", b)
			// The analytic backend must be the monolithic entry point,
			// bit for bit.
			be, err := cost.NewBackend("analytic")
			if err != nil {
				t.Fatalf("NewBackend(analytic): %v", err)
			}
			pb, err := be.Price(m, w, cfg, sys.Opts)
			if err != nil {
				t.Fatalf("analytic Price: %v", err)
			}
			check("analytic backend Price", pb)
		})
	}
}

// goldenTCME pins the five statistics of Breakdown.TCME.
type goldenTCME struct {
	InitialMaxLoad float64 `json:"initial_max_load"`
	FinalMaxLoad   float64 `json:"final_max_load"`
	Iterations     int     `json:"iterations"`
	MergedFlows    int     `json:"merged_flows"`
	ReroutedFlows  int     `json:"rerouted_flows"`
}

func toGoldenTCME(b cost.Breakdown) goldenTCME {
	r := b.TCME
	return goldenTCME{
		InitialMaxLoad: r.InitialMaxLoad, FinalMaxLoad: r.FinalMaxLoad,
		Iterations: r.Iterations, MergedFlows: r.MergedFlows, ReroutedFlows: r.ReroutedFlows,
	}
}

// fsdpTATPCase is one price of an FSDP×TATP hybrid, where the
// per-layer FSDP weight all-gather rides merged inside the TATP stream
// phases (Fig. 11). An unplaceable configuration pins its error.
type fsdpTATPCase struct {
	Model     string          `json:"model"`
	Config    string          `json:"config"`
	Opts      string          `json:"opts"`
	Tier      string          `json:"tier"`
	Err       string          `json:"err,omitempty"`
	Breakdown goldenBreakdown `json:"breakdown"`
	TCME      goldenTCME      `json:"tcme"`
}

const fsdpTATPGoldenPath = "testdata/fsdp_tatp_golden.json"

// fsdpTATPConfigs is Fig. 16's ablation ladder space on a 32-die
// wafer: every configuration with TATP ≥ 2 and DP ≥ 2, FSDP set (as
// sim.Ablation builds it).
func fsdpTATPConfigs() []parallel.Config {
	var cs []parallel.Config
	for _, c := range parallel.EnumerateConfigs(32, true, 0) {
		if c.TATP >= 2 && c.DP >= 2 {
			c.FSDP = true
			cs = append(cs, c)
		}
	}
	return cs
}

// fsdpTATPOptions are the ladder's two priced rungs: SMap with TATP,
// and the full TEMP engine.
func fsdpTATPOptions() map[string]cost.Options {
	return map[string]cost.Options{
		"smap": {Engine: cost.SMap, Recompute: cost.RecomputeSelective, DistributedOptimizer: true},
		"temp": cost.TEMPOptions(),
	}
}

func priceFSDPTATP(m model.Config, cfg parallel.Config, opts, tier string) fsdpTATPCase {
	c := fsdpTATPCase{Model: m.Name, Config: cfg.String(), Opts: opts, Tier: tier}
	b, err := cost.EvaluateWith(tier, m, hw.EvaluationWafer(), cfg, fsdpTATPOptions()[opts])
	if err != nil {
		c.Err = err.Error()
		return c
	}
	c.Breakdown, c.TCME = toGolden(b), toGoldenTCME(b)
	return c
}

// TestFSDPTATPGolden pins the FSDP×TATP hybrid pricing path, which no
// registered system's space reaches: every zoo model × the 32-die
// ablation ladder configurations × both rungs' options × the analytic
// and replay tiers must reproduce the captured breakdown and TCME
// statistics bit-identically. -short checks the first two models.
// Regenerate with UPDATE_COST_GOLDEN=1 go test ./internal/cost -run
// TestFSDPTATPGolden only when an intentional cost-model change lands.
func TestFSDPTATPGolden(t *testing.T) {
	if os.Getenv("UPDATE_COST_GOLDEN") != "" {
		var cases []fsdpTATPCase
		for _, m := range model.Zoo() {
			for _, cfg := range fsdpTATPConfigs() {
				for _, opts := range []string{"smap", "temp"} {
					for _, tier := range []string{"analytic", "replay"} {
						cases = append(cases, priceFSDPTATP(m, cfg, opts, tier))
					}
				}
			}
		}
		buf, err := json.MarshalIndent(cases, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fsdpTATPGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(cases), fsdpTATPGoldenPath)
		return
	}
	buf, err := os.ReadFile(fsdpTATPGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []fsdpTATPCase
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden file")
	}
	models := map[string]model.Config{}
	for i, m := range model.Zoo() {
		if testing.Short() && i >= 2 {
			break
		}
		models[m.Name] = m
	}
	cfgs := map[string]parallel.Config{}
	for _, c := range fsdpTATPConfigs() {
		cfgs[c.String()] = c
	}
	checked := 0
	for _, want := range cases {
		m, ok := models[want.Model]
		if !ok {
			continue
		}
		cfg, ok := cfgs[want.Config]
		if !ok {
			t.Fatalf("config %s left the ladder space", want.Config)
		}
		if got := priceFSDPTATP(m, cfg, want.Opts, want.Tier); got != want {
			t.Errorf("%s %s %s/%s diverged from capture:\n got  %+v\n want %+v",
				want.Model, want.Config, want.Opts, want.Tier, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no golden case checked")
	}
}
