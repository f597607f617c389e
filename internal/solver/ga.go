package solver

import (
	"context"
	"math/rand"
)

// GA is the paper's dual-level search (Fig. 12(b)) as a pluggable
// strategy: chain dynamic programming seeds the population, then a
// genetic stage (tournament selection, one-point crossover, per-gene
// mutation, elitism) refines the joint assignment under the global
// memory constraint. Each generation's population is priced in
// parallel across Budget.Workers goroutines through the shared term
// tables; for a fixed seed the returned assignment and cost are
// bit-identical at any worker count — and bit-identical to the
// pre-framework solver.DLS for the same options.
type GA struct {
	// Population and Generations size the genetic stage; zero values
	// take defaults (32, 40).
	Population, Generations int
	// MutationRate per gene (default 0.15).
	MutationRate float64
	// Seed drives the GA's randomness.
	Seed int64
	// dpOnly stops after dynamic programming (the DLS -no-ga
	// ablation; exposed as the registered "dp" strategy).
	dpOnly bool
}

// newGA builds the registered "ga" strategy from params.
func newGA(p Params) (Strategy, error) {
	if err := p.checkKnown("ga", "population", "generations", "mutation", "seed"); err != nil {
		return nil, err
	}
	g := &GA{
		Population:   int(p.value("population", 0)),
		Generations:  int(p.value("generations", 0)),
		MutationRate: p.value("mutation", 0),
		Seed:         p.seed(),
	}
	if err := (DLSOptions{Population: g.Population, Generations: g.Generations,
		MutationRate: g.MutationRate}).Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Name implements Strategy.
func (s *GA) Name() string {
	if s.dpOnly {
		return "dp"
	}
	return "ga"
}

// Solve implements Strategy. The search trajectory is exactly the
// pre-framework DLS: the budget and checkpoint hooks only observe it
// (they never touch the RNG stream), so an unlimited budget
// reproduces the historical assignments bit-identically per seed.
func (s *GA) Solve(ctx context.Context, p Problem, b Budget) (Assignment, Stats) {
	stats := Stats{Strategy: s.Name()}
	if !p.valid() {
		return nil, stats
	}
	population := s.Population
	if population == 0 {
		population = 32
	}
	generations := s.Generations
	if generations == 0 {
		generations = 40
	}
	mutation := s.MutationRate
	if mutation == 0 {
		mutation = 0.15
	}

	ev := p.evaluator()
	r := newRun(b, ev, &stats)

	// Level 1: dynamic programming per residual-free segment. The
	// segment boundaries cut the O(N²) joint space into independent
	// chains (§VII-B); transitions across boundaries are still
	// charged via interCost when totalling.
	assign := p.seedAssignment(ev, b)
	dpCost := ev.assignmentCost(assign)
	stats.DPCost = dpCost
	best := append(Assignment(nil), assign...)
	bestCost := dpCost

	// Level 2: genetic refinement (crossover, mutation, elitism) on
	// the joint genome, seeded with the DP solution. Only the cost
	// evaluation fans out; selection and variation stay serial so
	// the RNG stream matches the single-threaded search exactly.
	//
	// The population lives in structure-of-arrays form (soaPop):
	// crossover and mutation inherit the parents' memoized cost terms
	// and invalidate only what they change, so a generation re-prices
	// the few genuinely new (position, config) keys instead of walking
	// population×genes memo lookups. Selection order, RNG stream,
	// evaluation counts, costs and the returned assignment are
	// bit-identical to the per-individual walk (ga_golden.json pins
	// all of it).
	if !s.dpOnly {
		rng := rand.New(rand.NewSource(s.Seed))
		n := len(assign)
		sp := newSoaPop(ev, population, n)
		copy(sp.nextGenes[:n], assign)
		for i := 1; i < population; i++ {
			row := sp.nextGenes[i*n : (i+1)*n]
			copy(row, assign)
			// Diversify: re-roll a few genes.
			for j := range row {
				if rng.Float64() < 0.3 {
					row[j] = rng.Intn(len(p.Space))
				}
			}
		}
		sp.markAllDirty()
		sp.price(b.Workers)
		for gen := 0; gen < generations; gen++ {
			if r.stop(ctx) {
				break
			}
			stats.Generations++
			// Elitism: carry the best individual forward (a cut-0
			// "crossover" with itself is a clean term-preserving copy).
			eliteIdx := 0
			for i := range sp.costs {
				if sp.costs[i] < sp.costs[eliteIdx] {
					eliteIdx = i
				}
			}
			sp.breedInto(0, eliteIdx, eliteIdx, 0)
			for i := 1; i < population; i++ {
				pa := tournamentIdx(rng, sp.costs)
				pb := tournamentIdx(rng, sp.costs)
				sp.breedInto(i, pa, pb, rng.Intn(n))
				for j := 0; j < n; j++ {
					if rng.Float64() < mutation {
						sp.mutateGene(i, j, rng.Intn(len(p.Space)))
					}
				}
			}
			sp.price(b.Workers)
			for i := range sp.costs {
				if sp.costs[i] < bestCost {
					bestCost = sp.costs[i]
					best = append(best[:0], sp.row(i)...)
				}
			}
			r.checkpoint(gen+1, best, bestCost)
		}
	}

	r.finish(bestCost)
	return best, stats
}

// newDP builds the registered "dp" strategy: chain dynamic
// programming only, no genetic refinement (the DisableGA ablation).
func newDP(p Params) (Strategy, error) {
	if err := p.checkKnown("dp", "seed"); err != nil {
		return nil, err
	}
	return &GA{Seed: p.seed(), dpOnly: true}, nil
}

// tournamentIdx is binary tournament selection over row indices: two
// uniform draws, lower cost wins, ties to the first draw — the exact
// RNG consumption and tie-break of the historical Assignment-based
// tournament.
func tournamentIdx(rng *rand.Rand, costs []float64) int {
	a, b := rng.Intn(len(costs)), rng.Intn(len(costs))
	if costs[a] <= costs[b] {
		return a
	}
	return b
}
