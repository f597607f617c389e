package experiments

import (
	"context"
	"time"

	"temp/internal/distrib"
)

// Distributed experiment execution: each experiment table is one task
// shipped to a worker process. Workers replicate the coordinator's
// process-level overrides (-model/-wafer/-backend, memo dir) via the
// passthrough flags on their command line, so a table computed
// remotely is bit-identical to one computed here.

type tableTask struct {
	ID    string
	Quick bool
}

type tableOut struct {
	Table Table
	Nanos int64
}

func init() {
	distrib.RegisterKind("experiments.table", distrib.HandlerGob(runTableTask))
}

func runTableTask(ctx context.Context, t tableTask) (tableOut, error) {
	if err := ctx.Err(); err != nil {
		return tableOut{}, err
	}
	start := time.Now()
	tab, err := ByID(t.ID, t.Quick)
	if err != nil {
		return tableOut{}, err
	}
	return tableOut{Table: *tab, Nanos: time.Since(start).Nanoseconds()}, nil
}

// All regenerates the full suite and reports each table with its
// wall-clock time, in DESIGN.md order: one task per table, sharded
// across f's workers, or run concurrently in-process through the same
// handler when f is nil or degraded. Runners share the engine's memo,
// so figures sweeping the same configuration space each pay for an
// evaluation once. On failure it returns the tables that precede the
// first failing experiment.
func All(f *distrib.Fabric, quick bool) ([]*Table, []time.Duration, error) {
	runners := allRunners()
	tasks := make([]tableTask, len(runners))
	for i, r := range runners {
		tasks[i] = tableTask{ID: r.ID, Quick: quick}
	}
	outs, errs := distrib.RunTasks[tableTask, tableOut](f, "experiments.table", tasks)
	tabs := make([]*Table, len(runners))
	durs := make([]time.Duration, len(runners))
	for i := range outs {
		if errs[i] != nil {
			continue
		}
		t := outs[i].Table
		tabs[i] = &t
		durs[i] = time.Duration(outs[i].Nanos)
	}
	for i, err := range errs {
		if err != nil {
			return tabs[:i], durs[:i], err
		}
	}
	return tabs, durs, nil
}

// ByIDOn runs one experiment as a fabric task (in-process through the
// same handler when f is nil or degraded), so -exp also exercises the
// distributed path.
func ByIDOn(f *distrib.Fabric, id string, quick bool) (*Table, error) {
	outs, errs := distrib.RunTasks[tableTask, tableOut](f, "experiments.table", []tableTask{{ID: id, Quick: quick}})
	if errs[0] != nil {
		return nil, errs[0]
	}
	t := outs[0].Table
	return &t, nil
}
