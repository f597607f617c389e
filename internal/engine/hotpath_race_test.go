package engine

import (
	"reflect"
	"sync"
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// TestSweepSharesHotPathCaches hammers the evaluation hot path's
// shared structures from concurrent Sweeps: the topology interner and
// the per-topology derived state (placements, orchestrations, compiled
// lowering templates, their link profiles and TCME route plans) are
// all built and read by every worker at once. The pools run first, on a wafer no other test in
// this package interns, so they race the construction of every one
// of those structures, not just reads of warm ones. Run under -race
// this is the concurrency contract test for the hot-path caches; the
// result check doubles as a determinism guard (parallel sweeps must
// equal a serial sweep run after them, bit for bit).
func TestSweepSharesHotPathCaches(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	w.Name = "wsc-4x8-race"
	w.Link.Bandwidth *= 1.5
	var jobs []Job
	for _, cfg := range parallel.EnumerateConfigs(w.Dies(), true, 0) {
		jobs = append(jobs, Job{Model: m, Wafer: w, Config: cfg, Opts: cost.TEMPOptions()})
		// The replay tier runs SMap/GMap states through route plans too.
		for _, e := range []cost.Engine{cost.SMap, cost.GMap} {
			o := cost.TEMPOptions()
			o.Engine = e
			jobs = append(jobs, Job{Model: m, Wafer: w, Config: cfg, Opts: o, Backend: "replay"})
		}
	}

	// Two parallel pools race each other on the process-global caches.
	pools := []*Pool{New(8), New(8)}
	results := make([][]Result, len(pools))
	var wg sync.WaitGroup
	for i, p := range pools {
		wg.Add(1)
		go func(i int, p *Pool) {
			defer wg.Done()
			results[i] = p.Sweep(jobs)
		}(i, p)
	}
	wg.Wait()
	serial := New(1).Sweep(jobs)

	for i, rs := range results {
		for j, r := range rs {
			if (r.Err == nil) != (serial[j].Err == nil) {
				t.Fatalf("pool %d job %d error mismatch: %v vs %v", i, j, r.Err, serial[j].Err)
			}
			if !reflect.DeepEqual(r.Breakdown, serial[j].Breakdown) {
				t.Fatalf("pool %d job %d (%s, %s, backend %q) diverged from the serial sweep:\n%+v\n%+v",
					i, j, jobs[j].Config, jobs[j].Opts.Engine, jobs[j].Backend, r.Breakdown, serial[j].Breakdown)
			}
		}
	}
}
