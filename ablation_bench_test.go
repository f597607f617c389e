package temp

import (
	"testing"

	"temp/internal/collective"
	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
	"temp/internal/stream"
	"temp/internal/tcme"
	"temp/internal/unit"
)

// Ablation benchmarks for the design choices DESIGN.md calls out.
// These isolate single mechanisms rather than regenerate paper
// artefacts.

// BenchmarkAblationOrchestration compares the three stream
// orchestrations on identical hardware: physical ring, TATP's
// bidirectional chain, and the naive multi-hop fallback.
func BenchmarkAblationOrchestration(b *testing.B) {
	link := hw.TableID2D()
	sub := 64 * unit.MB
	cases := []struct {
		name  string
		build func() (*mesh.Topology, *stream.Orchestration)
	}{
		{"ring-2x8", func() (*mesh.Topology, *stream.Orchestration) {
			t := mesh.New(2, 8, link)
			r := mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 7}
			return t, stream.Orchestrate(t, r.DiesOn(t), &r)
		}},
		{"bidir-1x16", func() (*mesh.Topology, *stream.Orchestration) {
			t := mesh.New(1, 16, link)
			r := mesh.Rect{R0: 0, C0: 0, R1: 0, C1: 15}
			return t, stream.Orchestrate(t, r.DiesOn(t), &r)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			topo, orch := tc.build()
			var pt mesh.PhaseTime
			for i := 0; i < b.N; i++ {
				pt = topo.SeqTime(orch.Phases(sub))
			}
			b.ReportMetric(pt.Total()*1e6, "stream-us")
			b.ReportMetric(float64(pt.MaxHops), "max-hops")
		})
	}
	// The naive logical ring on the same 1×16 chain, for contrast.
	b.Run("naive-ring-on-chain-1x16", func(b *testing.B) {
		topo := mesh.New(1, 16, link)
		order := mesh.Rect{R0: 0, C0: 0, R1: 0, C1: 15}.DiesOn(topo)
		var total float64
		for i := 0; i < b.N; i++ {
			phases := collective.RingAllGather(topo, order, sub)
			total = topo.SeqTime(phases).Total()
		}
		b.ReportMetric(total*1e6, "stream-us")
	})
}

// BenchmarkAblationTCMEMoves isolates the optimizer's two moves on
// the Fig. 11 contention scenario.
func BenchmarkAblationTCMEMoves(b *testing.B) {
	topo := mesh.New(4, 4, hw.TableID2D())
	id := func(r, c int) mesh.DieID { return topo.ID(mesh.Coord{R: r, C: c}) }
	bytes := 32 * unit.MB
	build := func() []mesh.Phase {
		var seqs [][]mesh.Phase
		for _, g := range [][]mesh.DieID{
			{id(0, 1), id(0, 0), id(1, 0), id(1, 1)},
			{id(0, 3), id(0, 2), id(1, 2), id(1, 3)},
			{id(2, 1), id(2, 0), id(3, 0), id(3, 1)},
			{id(2, 3), id(2, 2), id(3, 2), id(3, 3)},
		} {
			seqs = append(seqs, collective.RingAllGather(topo, g, bytes))
		}
		for _, c := range [][]mesh.DieID{
			{id(0, 2), id(0, 0), id(2, 0), id(2, 2)},
			{id(0, 3), id(0, 1), id(2, 1), id(2, 3)},
			{id(1, 2), id(1, 0), id(3, 0), id(3, 2)},
			{id(1, 3), id(1, 1), id(3, 1), id(3, 3)},
		} {
			var chain mesh.Phase
			for h := 0; h+1 < len(c); h++ {
				chain.Flows = append(chain.Flows, mesh.Flow{Src: c[h], Dst: c[h+1], Bytes: bytes,
					Route: topo.Route(c[h], c[h+1]), Payload: mesh.Payload{Datum: int32(h)}})
			}
			seqs = append(seqs, []mesh.Phase{chain})
		}
		return collective.Merge(seqs...)
	}
	for _, tc := range []struct {
		name string
		opts tcme.Options
	}{
		{"full", tcme.Options{}},
		{"merge-only", tcme.Options{DisableReroute: true}},
		{"reroute-only", tcme.Options{DisableMerge: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var agg tcme.Result
			for i := 0; i < b.N; i++ {
				_, agg = tcme.OptimizeAll(topo, build(), tc.opts)
			}
			b.ReportMetric(agg.Improvement(), "bottleneck-reduction-x")
		})
	}
}

// BenchmarkAblationSolverLevels compares chain-DP-only against the
// full dual-level search.
func BenchmarkAblationSolverLevels(b *testing.B) {
	m := model.GPT3_175B()
	w := hw.EvaluationWafer()
	g := model.BlockGraph(m)
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	cm := &solver.Analytic{W: w, M: m}
	for _, tc := range []struct {
		name string
		opts solver.DLSOptions
	}{
		{"dp-only", solver.DLSOptions{Seed: 7, DisableGA: true}},
		{"dp+ga", solver.DLSOptions{Seed: 7}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var stats solver.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = solver.DLS(g, space, cm, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.FinalCost*1e3, "chain-cost-ms")
			b.ReportMetric(float64(stats.Evaluations), "model-evals")
		})
	}
}

// BenchmarkAblationSelectivePolicy measures the selective transfer
// policy against forced weight streaming on a long-sequence workload.
func BenchmarkAblationSelectivePolicy(b *testing.B) {
	m := model.Llama2_7B().WithSeq(16384, 32)
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 2, TATP: 16}
	for _, tc := range []struct {
		name  string
		force bool
	}{
		{"selective", false},
		{"always-weights", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			o := cost.TEMPOptions()
			o.ForceStreamWeights = tc.force
			var step float64
			for i := 0; i < b.N; i++ {
				res, err := cost.Evaluate(m, w, cfg, o)
				if err != nil {
					b.Fatal(err)
				}
				step = res.StepTime
			}
			b.ReportMetric(step, "step-s")
		})
	}
}
