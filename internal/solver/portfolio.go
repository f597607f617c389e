package solver

import (
	"context"

	"temp/internal/engine"
)

// Portfolio races several strategies on the same problem across the
// engine's worker pool and returns the best assignment any of them
// finds. Each racer gets its own evaluator (so per-racer stats stay
// deterministic) and a serial inner budget — the race itself is the
// parallelism. The first racer is the GA with the portfolio's own
// seed, so the portfolio never returns a worse assignment than the
// GA baseline under the same budget; ties break toward the earlier
// racer.
type Portfolio struct {
	// Subs are the raced strategies. Empty defaults to
	// {ga, anneal, hillclimb} seeded from Seed.
	Subs []Strategy
	// Seed derives the default racers' seeds.
	Seed int64
}

// newPortfolio builds the registered "portfolio" strategy from
// params.
func newPortfolio(p Params) (Strategy, error) {
	if err := p.checkKnown("portfolio", "seed"); err != nil {
		return nil, err
	}
	return &Portfolio{Seed: p.seed()}, nil
}

// Name implements Strategy.
func (s *Portfolio) Name() string { return "portfolio" }

// defaultRacers is the local-search trio (GA first, so races seeded
// from it are never worse than the GA baseline) shared by the
// portfolio's race and the multifid strategy's screening stage.
func defaultRacers(seed int64) []Strategy {
	return []Strategy{
		&GA{Seed: seed},
		&Anneal{Seed: seed + 1},
		&HillClimb{Seed: seed + 2},
	}
}

// racers returns the configured or default sub-strategies. When the
// problem carries a screening model, the surrogate-screened
// multi-fidelity search joins the default race (it verifies on the
// exact model, so the portfolio's winner stays exact-priced).
func (s *Portfolio) racers(p Problem) []Strategy {
	if len(s.Subs) > 0 {
		return s.Subs
	}
	out := defaultRacers(s.Seed)
	if p.Screen != nil {
		out = append(out, &MultiFidelity{Seed: s.Seed + 3})
	}
	return out
}

// Solve implements Strategy. Budget.MaxEvals applies per racer (each
// owns its evaluator, so every racer searches under the same eval
// budget); Budget.Deadline is global — it is converted to a shared
// context deadline before the race, so total wall-clock stays bounded
// even when the workers bound serializes racers.
func (s *Portfolio) Solve(ctx context.Context, p Problem, b Budget) (Assignment, Stats) {
	if !p.valid() {
		return nil, Stats{Strategy: s.Name()}
	}
	subs := s.racers(p)
	inner := b
	inner.Workers = 1
	if b.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.Deadline)
		defer cancel()
		inner.Deadline = 0
	}
	assigns := make([]Assignment, len(subs))
	subStats := make([]Stats, len(subs))
	engine.ForEach(b.Workers, len(subs), func(i int) {
		assigns[i], subStats[i] = subs[i].Solve(ctx, p, inner)
	})
	return raceResult(assigns, subStats)
}

// raceResult folds a race's per-racer results into the portfolio's:
// strictly lower FinalCost wins and ties break toward the earlier
// racer, the winner's search stats are the race's, evaluation counts
// sum over racers, Elapsed is the slowest racer's, and Sub carries
// every racer's stats.
func raceResult(assigns []Assignment, subs []Stats) (Assignment, Stats) {
	winner := 0
	for i := 1; i < len(subs); i++ {
		if subs[i].FinalCost < subs[winner].FinalCost {
			winner = i
		}
	}
	win := subs[winner]
	stats := Stats{
		Strategy: "portfolio", Winner: win.Strategy, Sub: subs,
		DPCost: win.DPCost, FinalCost: win.FinalCost,
		Generations: win.Generations, Iterations: win.Iterations, Restarts: win.Restarts,
		Checkpoints: win.Checkpoints,
	}
	for _, ss := range subs {
		stats.Evaluations += ss.Evaluations
		stats.ScreenEvaluations += ss.ScreenEvaluations
		stats.Elapsed = max(stats.Elapsed, ss.Elapsed)
	}
	return assigns[winner], stats
}
