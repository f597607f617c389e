package solver

import (
	"context"
	"fmt"

	"temp/internal/distrib"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// Distributed portfolio racing: each racer (ga, anneal, hillclimb,
// and multifid when screening applies) is one task, so the race
// spreads across worker processes instead of goroutines. Each worker
// rebuilds its cost models from the same (model, wafer, backend,
// seed) tuple, so a racer's result is bit-identical to the in-process
// portfolio's corresponding sub-strategy.

type raceTask struct {
	Strategy   string
	Seed       int64
	ScreenSeed int64
	Model      model.Config
	Wafer      hw.Wafer
	Backend    string
	Budget     Budget
}

type raceOut struct {
	Assignment Assignment
	Stats      Stats
}

func init() {
	distrib.RegisterKind("solver.race", distrib.HandlerGob(runRaceTask))
}

func runRaceTask(ctx context.Context, t raceTask) (raceOut, error) {
	g := model.BlockGraph(t.Model)
	space := parallel.EnumerateConfigs(t.Wafer.Dies(), true, 0)
	cm, screen, err := SearchModels(t.Strategy, t.Backend, t.Model, t.Wafer, t.ScreenSeed)
	if err != nil {
		return raceOut{}, err
	}
	st, err := NewStrategy(t.Strategy, Params{"seed": float64(t.Seed)})
	if err != nil {
		return raceOut{}, err
	}
	p := Problem{Graph: g, Space: space, Model: cm, Screen: screen}
	a, s := st.Solve(ctx, p, t.Budget)
	return raceOut{Assignment: a, Stats: s}, nil
}

// DistributedRace runs the portfolio's race with one racer per fabric
// task (in-process through the registered handler on a nil fabric),
// and folds the racers' results exactly as Portfolio.Solve does. The
// only semantic difference from the in-process portfolio is the
// deadline: it applies per racer rather than as one shared context,
// since workers are separate processes. Cancelling ctx aborts the
// race: unfinished racers report ctx.Err() and the call fails.
func DistributedRace(ctx context.Context, f *distrib.Fabric, m model.Config, w hw.Wafer, backendKey string, seed, screenSeed int64, b Budget) (Assignment, Stats, error) {
	names := []string{"ga", "anneal", "hillclimb", "multifid"}
	tasks := make([]raceTask, len(names))
	for i, name := range names {
		tasks[i] = raceTask{
			Strategy: name, Seed: seed + int64(i), ScreenSeed: screenSeed,
			Model: m, Wafer: w, Backend: backendKey, Budget: b,
		}
	}
	outs, errs := distrib.RunTasksCtx[raceTask, raceOut](ctx, f, "solver.race", tasks)
	assigns := make([]Assignment, len(outs))
	subs := make([]Stats, len(outs))
	for i, err := range errs {
		if err != nil {
			return nil, Stats{}, fmt.Errorf("solver: distributed racer %s: %w", names[i], err)
		}
		assigns[i], subs[i] = outs[i].Assignment, outs[i].Stats
	}
	a, stats := raceResult(assigns, subs)
	return a, stats, nil
}
