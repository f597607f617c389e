package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"temp/internal/cost"
	"temp/internal/engine"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
)

// MaskKind selects what a worst-case mask may kill.
type MaskKind string

// Mask site kinds.
const (
	LinkMask  MaskKind = "link"  // D2D link bundles
	DieMask   MaskKind = "die"   // whole dies
	MixedMask MaskKind = "mixed" // either
)

// MaskSearch finds the most damaging K-site fault mask for one
// mapping — Fig. 20's random sampling turned into an adversarial
// bound. It reuses the Strategy framework on a synthetic problem: K
// slot-operators choose among fault sites, the cost of a site is its
// exactly-priced single-site normalized throughput (lower = more
// damaging, so minimizing cost maximizes damage), and candidate masks
// from the search are then jointly re-priced exactly and greedily
// polished.
type MaskSearch struct {
	// K is the mask size in sites (default 2).
	K int
	// Kind selects the site population (default LinkMask).
	Kind MaskKind
	// Strategy is the registered search strategy (default "hillclimb");
	// Seed/Params/Budget tune it as in RepairOptions.
	Strategy string
	Seed     int64
	Params   solver.Params
	Budget   solver.Budget
	// Backend names the cost tier pricing the masks ("" = analytic).
	Backend string
	// Workers bounds the upfront single-site pricing fan-out.
	Workers int
}

// WorstCase reports the most damaging mask found.
type WorstCase struct {
	// Links/Dies are the mask's sites.
	Links []mesh.Link  `json:"links,omitempty"`
	Dies  []mesh.DieID `json:"dies,omitempty"`
	// Norm is the mapping's normalized throughput under the mask (0 =
	// the mask disconnects the fabric or defeats placement).
	Norm float64 `json:"norm"`
	// SiteEvals counts exact single-site pricings; JointEvals counts
	// exact whole-mask pricings.
	SiteEvals  int           `json:"site_evals"`
	JointEvals int           `json:"joint_evals"`
	Elapsed    time.Duration `json:"elapsed"`
	Strategy   string        `json:"strategy"`
}

// maskSite is one killable fault site.
type maskSite struct {
	link  mesh.Link
	die   mesh.DieID
	isDie bool
}

// maskModel adapts precomputed single-site damage to the solver's
// CostModel interface. Space entries are opaque tokens encoding site
// indices (Config{DP: i+1}); the evaluator never normalizes them.
// Adjacent duplicate sites pay a penalty so local moves diversify;
// remaining duplicates are resolved during verification.
type maskModel struct {
	norms []float64
}

func (mm *maskModel) site(cfg parallel.Config) int { return cfg.DP - 1 }

func (mm *maskModel) Intra(_ model.Op, cfg parallel.Config) float64 {
	return mm.norms[mm.site(cfg)]
}

func (mm *maskModel) Inter(_, _ model.Op, pc, nc parallel.Config) float64 {
	if mm.site(pc) == mm.site(nc) {
		return 10 // dominates any norm difference, far below oomPenalty
	}
	return 0
}

func (mm *maskModel) MemoryOK(parallel.Config) bool { return true }

// maskSites enumerates the killable sites of a pristine topology for
// one mask kind: D2D link bundles (From < To), dies, or both.
func maskSites(pristine *mesh.Topology, kind MaskKind) []maskSite {
	var sites []maskSite
	if kind == LinkMask || kind == MixedMask {
		for id := 0; id < pristine.NumLinks(); id++ {
			l := pristine.LinkByID(id)
			if l.From < l.To {
				sites = append(sites, maskSite{link: l})
			}
		}
	}
	if kind == DieMask || kind == MixedMask {
		for d := 0; d < pristine.Dies(); d++ {
			sites = append(sites, maskSite{die: mesh.DieID(d), isDie: true})
		}
	}
	return sites
}

// maskPricer returns a closure exactly pricing the mapping under a
// joint site mask, normalized to the fault-free baseline (0 when the
// mask disconnects the fabric or defeats placement).
func maskPricer(backend string, m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options,
	pristine *mesh.Topology, sites []maskSite, baseTokens float64) func(chosen []int) float64 {
	return func(chosen []int) float64 {
		topo := pristine.Clone()
		for _, si := range chosen {
			st := sites[si]
			if st.isDie {
				topo.SetDieAlive(st.die, false)
			} else {
				topo.SetLinkAlive(st.link, false)
			}
		}
		topo = topo.Intern()
		if !topo.Connected() {
			return 0
		}
		// A dead die never counts toward capacity, and the survivors
		// keep all their cores.
		b, ok := priceDegraded(backend, m, w, cfg, o, topo, 1)
		if !ok {
			return 0
		}
		return b.ThroughputTokens / baseTokens
	}
}

// RandomMaskNorm prices the mapping under `trials` uniformly random
// K-site masks (seeded, deterministic) and returns the mean normalized
// throughput — the random-sampling baseline a worst-case search is
// compared against.
func RandomMaskNorm(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options,
	kind MaskKind, k, trials int, seed int64) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("fault: random mask trial count %d is not positive", trials)
	}
	if kind == "" {
		kind = LinkMask
	}
	if k <= 0 {
		k = 2
	}
	base, err := cost.EvaluateWith("", m, w, cfg, o)
	if err != nil {
		return 0, fmt.Errorf("fault: random mask baseline: %w", err)
	}
	if base.ThroughputTokens <= 0 {
		return 0, fmt.Errorf("fault: random mask baseline throughput is not positive")
	}
	pristine := mesh.FromWafer(w)
	sites := maskSites(pristine, kind)
	if k > len(sites) {
		return 0, fmt.Errorf("fault: mask size %d exceeds %d %s sites", k, len(sites), kind)
	}
	price := maskPricer("", m, w, cfg, o, pristine, sites, base.ThroughputTokens)
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for t := 0; t < trials; t++ {
		sum += price(rng.Perm(len(sites))[:k])
	}
	return sum / float64(trials), nil
}

// Run searches for the worst-case mask of the mapping cfg.
func (s MaskSearch) Run(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options) (WorstCase, error) {
	start := time.Now()
	k := s.K
	if k <= 0 {
		k = 2
	}
	kind := s.Kind
	if kind == "" {
		kind = LinkMask
	}
	base, err := cost.EvaluateWith(s.Backend, m, w, cfg, o)
	if err != nil {
		return WorstCase{}, fmt.Errorf("fault: mask search baseline: %w", err)
	}
	if base.ThroughputTokens <= 0 {
		return WorstCase{}, fmt.Errorf("fault: mask search baseline throughput is not positive")
	}

	pristine := mesh.FromWafer(w)
	sites := maskSites(pristine, kind)
	if k > len(sites) {
		return WorstCase{}, fmt.Errorf("fault: mask size %d exceeds %d %s sites", k, len(sites), kind)
	}
	priceMask := maskPricer(s.Backend, m, w, cfg, o, pristine, sites, base.ThroughputTokens)

	// Exact single-site damage, fanned deterministically.
	norms := make([]float64, len(sites))
	engine.ForEach(s.Workers, len(sites), func(i int) {
		norms[i] = priceMask([]int{i})
	})
	wc := WorstCase{SiteEvals: len(sites)}

	// Synthetic strategy-framework problem: K slots over the site
	// space, seeded like any other search.
	space := make([]parallel.Config, len(sites))
	for i := range sites {
		space[i] = parallel.Config{DP: i + 1}
	}
	p := solver.Problem{
		Graph: model.Graph{Ops: make([]model.Op, k)},
		Space: space,
		Model: &maskModel{norms: norms},
	}
	name := s.Strategy
	if name == "" {
		name = "hillclimb"
	}
	params := solver.Params{}
	for kk, v := range s.Params {
		params[kk] = v
	}
	if _, ok := params["seed"]; !ok {
		params["seed"] = float64(s.Seed)
	}
	st, err := solver.NewStrategy(name, params)
	if err != nil {
		return WorstCase{}, fmt.Errorf("fault: mask search strategy: %w", err)
	}
	a, stats := st.Solve(context.Background(), p, s.Budget)
	wc.Strategy = stats.Strategy

	// Damage order: most damaging single sites first (ties by index).
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if norms[order[i]] != norms[order[j]] {
			return norms[order[i]] < norms[order[j]]
		}
		return order[i] < order[j]
	})

	// dedup pads a candidate mask to k distinct sites with the most
	// damaging unused singles.
	dedup := func(chosen []int) []int {
		used := map[int]bool{}
		out := make([]int, 0, k)
		for _, c := range chosen {
			if c >= 0 && c < len(sites) && !used[c] {
				used[c] = true
				out = append(out, c)
			}
		}
		for _, c := range order {
			if len(out) >= k {
				break
			}
			if !used[c] {
				used[c] = true
				out = append(out, c)
			}
		}
		return out
	}

	// Candidate masks: the search result and the greedy top-K, jointly
	// verified exactly.
	cands := [][]int{dedup(a), dedup(nil)}
	bestNorm := 2.0
	var best []int
	for _, c := range cands {
		wc.JointEvals++
		if n := priceMask(c); n < bestNorm {
			bestNorm, best = n, c
		}
	}
	// Greedy polish: per slot, try the most damaging unused singles.
	for slot := 0; slot < len(best); slot++ {
		inMask := map[int]bool{}
		for _, c := range best {
			inMask[c] = true
		}
		tried := 0
		for _, c := range order {
			if tried >= 6 {
				break
			}
			if inMask[c] {
				continue
			}
			tried++
			cand := append([]int(nil), best...)
			cand[slot] = c
			wc.JointEvals++
			if n := priceMask(cand); n < bestNorm {
				bestNorm, best = n, cand
			}
		}
	}

	wc.Norm = bestNorm
	for _, si := range best {
		if sites[si].isDie {
			wc.Dies = append(wc.Dies, sites[si].die)
		} else {
			wc.Links = append(wc.Links, sites[si].link)
		}
	}
	wc.Elapsed = time.Since(start)
	return wc, nil
}
