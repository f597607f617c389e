package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"temp/internal/cost"
	"temp/internal/engine"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// TrialSeed derives the RNG seed of one Monte Carlo trial from the
// campaign seed and the trial's grid coordinates (splitmix64
// finalizer). Every trial owns an independent seeded RNG, so the
// campaign is bit-identical at any worker count and any evaluation
// order — unlike a single RNG streamed across trials, where
// parallelism would reorder the draws.
func TrialSeed(seed int64, cell, trial int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(cell+1) ^ 0xbf58476d1ce4e5b9*uint64(trial+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// Campaign is a deterministic Monte Carlo fault campaign: a
// LinkRate × CoreRate grid of injections, each cell sampled over
// Trials seeded masks, fanned through the engine worker pool. The
// output survivability curves answer the §VIII-F question at scale:
// at which fault rates does this mapping stop being functional, and
// how much throughput does the adaptive tolerance retain on the way
// down.
type Campaign struct {
	Model   model.Config
	Wafer   hw.Wafer
	Config  parallel.Config
	Opts    cost.Options
	Backend string
	// LinkRates × CoreRates is the injection grid (defaults:
	// DefaultLinkRates × DefaultCoreRates).
	LinkRates []float64
	CoreRates []float64
	// CoresPerDie sizes the per-die core array (default 64).
	CoresPerDie int
	// Trials is the Monte Carlo sample count per cell (default 8).
	Trials int
	// Seed drives every trial's mask via TrialSeed (default 42).
	Seed int64
	// Workers bounds the fan-out (0 = GOMAXPROCS). Results are
	// bit-identical at any worker count.
	Workers int
}

// Default campaign grid: the Fig. 20 sweep region, crossed.
var (
	DefaultLinkRates = []float64{0, 0.1, 0.2, 0.3, 0.4}
	DefaultCoreRates = []float64{0, 0.1, 0.2}
)

// CellStats is the survivability summary of one (LinkRate, CoreRate)
// grid cell.
type CellStats struct {
	LinkRate float64 `json:"link_rate"`
	CoreRate float64 `json:"core_rate"`
	// FunctionalRate is the fraction of trials whose degraded fabric
	// still placed and priced the configuration.
	FunctionalRate float64 `json:"functional_rate"`
	// MeanNorm / P5Norm / MinNorm summarize normalized throughput
	// across trials (non-functional trials count as zero). P5Norm is
	// the lower 5th percentile (floor-indexed order statistic).
	MeanNorm float64 `json:"mean_norm"`
	P5Norm   float64 `json:"p5_norm"`
	MinNorm  float64 `json:"min_norm"`
}

// CampaignResult is the JSON-serializable campaign output.
type CampaignResult struct {
	Model   string `json:"model"`
	Wafer   string `json:"wafer"`
	Config  string `json:"config"`
	Backend string `json:"backend"`
	Trials  int    `json:"trials"`
	Seed    int64  `json:"seed"`
	// BaselineTokens is the fault-free throughput every norm is
	// relative to.
	BaselineTokens float64 `json:"baseline_tokens_per_sec"`
	// Cells are the grid cells in link-major order.
	Cells []CellStats `json:"cells"`
}

// normalized returns a copy with every default filled in and the
// grid validated, so local and distributed execution start from the
// same fully-explicit campaign.
func (c Campaign) normalized() (Campaign, error) {
	if c.Trials <= 0 {
		c.Trials = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.LinkRates) == 0 {
		c.LinkRates = DefaultLinkRates
	}
	if len(c.CoreRates) == 0 {
		c.CoreRates = DefaultCoreRates
	}
	for _, r := range append(append([]float64(nil), c.LinkRates...), c.CoreRates...) {
		if r < 0 || r > 1 {
			return Campaign{}, fmt.Errorf("fault: campaign rate %v outside [0,1]", r)
		}
	}
	return c, nil
}

// cellCoord is one grid cell's injection rates.
type cellCoord struct{ link, core float64 }

// cells enumerates the grid in link-major order — the canonical cell
// indexing shared by local and distributed runs.
func (c Campaign) cells() []cellCoord {
	var cells []cellCoord
	for _, lr := range c.LinkRates {
		for _, cr := range c.CoreRates {
			cells = append(cells, cellCoord{lr, cr})
		}
	}
	return cells
}

// baseline prices the fault-free configuration every norm is relative
// to.
func (c Campaign) baseline() (float64, error) {
	base, err := cost.EvaluateWith(c.Backend, c.Model, c.Wafer, c.Config, c.Opts)
	if err != nil {
		return 0, fmt.Errorf("fault: campaign baseline: %w", err)
	}
	if base.ThroughputTokens <= 0 {
		return 0, fmt.Errorf("fault: campaign baseline throughput is not positive")
	}
	return base.ThroughputTokens, nil
}

// trialRands pools trial generators. Seed resets a generator's whole
// state, so a re-seeded one draws exactly what a fresh one would.
var trialRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// trial runs one Monte Carlo trial of one cell on a normalized
// campaign.
func (c Campaign) trial(cl cellCoord, ci, ti int, baseTokens float64) (norm float64, functional bool) {
	in := Injection{
		LinkRate:    cl.link,
		CoreRate:    cl.core,
		CoresPerDie: c.CoresPerDie,
	}
	rng := trialRands.Get().(*rand.Rand)
	rng.Seed(TrialSeed(c.Seed, ci, ti))
	out := EvaluateWith(c.Backend, c.Model, c.Wafer, c.Config, c.Opts, in, rng)
	trialRands.Put(rng)
	if !out.Functional {
		return 0, false
	}
	return out.Breakdown.ThroughputTokens / baseTokens, true
}

// summarize folds the flat per-trial results (cell-major, trials
// within a cell contiguous) into the survivability curves.
func (c Campaign) summarize(cells []cellCoord, norms []float64, functional []bool, baseTokens float64) CampaignResult {
	backend := cost.CanonicalBackendKey(c.Backend)
	if backend == "" {
		backend = "analytic"
	}
	res := CampaignResult{
		Model: c.Model.Name, Wafer: c.Wafer.Name, Config: c.Config.Normalize().String(),
		Backend: backend, Trials: c.Trials, Seed: c.Seed,
		BaselineTokens: baseTokens,
	}
	sorted := make([]float64, c.Trials)
	for ci, cl := range cells {
		st := CellStats{LinkRate: cl.link, CoreRate: cl.core}
		var sum float64
		fn := 0
		for ti := 0; ti < c.Trials; ti++ {
			v := norms[ci*c.Trials+ti]
			sum += v
			sorted[ti] = v
			if functional[ci*c.Trials+ti] {
				fn++
			}
		}
		sort.Float64s(sorted)
		st.FunctionalRate = float64(fn) / float64(c.Trials)
		st.MeanNorm = sum / float64(c.Trials)
		st.P5Norm = sorted[(c.Trials-1)*5/100]
		st.MinNorm = sorted[0]
		res.Cells = append(res.Cells, st)
	}
	return res
}

// Run executes the campaign. Deterministic: per-trial RNGs are seeded
// by TrialSeed and every trial writes its own result slot, so any
// worker count produces bit-identical output.
func (c Campaign) Run() (CampaignResult, error) {
	cc, err := c.normalized()
	if err != nil {
		return CampaignResult{}, err
	}
	baseTokens, err := cc.baseline()
	if err != nil {
		return CampaignResult{}, err
	}
	cells := cc.cells()
	n := len(cells) * cc.Trials
	norms := make([]float64, n)
	functional := make([]bool, n)
	engine.ForEach(cc.Workers, n, func(i int) {
		ci, ti := i/cc.Trials, i%cc.Trials
		norms[i], functional[i] = cc.trial(cells[ci], ci, ti, baseTokens)
	})
	return cc.summarize(cells, norms, functional, baseTokens), nil
}
