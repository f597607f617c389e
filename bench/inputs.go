package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"temp/internal/parallel"
	"temp/internal/solver"
	"temp/internal/spec"
)

// Every input a workload feeds the program is generated here from the
// workload seed alone: the same seed gives byte-identical inputs, and
// the program sees nothing else. The draws are stratified (exact
// shares per system, strategy and request kind) so that a different
// seed changes which inputs run but not how much work they are, which
// keeps the end-to-end metrics comparable across seeds.

// rng derives an independent stream per workload and purpose.
func rng(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// sweepWafers are the two 32-die wafers of the paper's comparisons.
var sweepWafers = []string{"wsc-4x8", "wsc-4x8-a100match"}

// sweepOp is one scenario of the sweep workload; Verify marks the
// seeded 5% whose result is re-priced outside the engine.
type sweepOp struct {
	Spec   spec.ScenarioSpec `json:"spec"`
	Verify bool              `json:"verify,omitempty"`
}

// sweepInputs runs each of the 7 registered systems on all 30 (model,
// wafer) pairs in seeded order (2 pairs in smoke mode); a seeded sixth
// of each system's scenarios is priced on the replay tier. The list is
// interleaved in blocks holding one scenario of every system. Which
// TEMP scenarios run is what sets a sweep's time, so the seed changes
// the order and the tier split, not the set.
func sweepInputs(seed int64, smoke bool) []sweepOp {
	r := rng(seed, "sweep")
	systems := spec.Systems.Names()
	perSystem, replay := 30, 5
	if smoke {
		perSystem, replay = 2, 1
	}
	type pair struct{ model, wafer string }
	var pairs []pair
	for _, w := range sweepWafers {
		for _, m := range spec.Models.Names() {
			pairs = append(pairs, pair{m, w})
		}
	}
	drawn := make([][]spec.ScenarioSpec, len(systems))
	for si, sys := range systems {
		order := r.Perm(len(pairs))
		onReplay := map[int]bool{}
		for _, k := range r.Perm(perSystem)[:replay] {
			onReplay[k] = true
		}
		for k := 0; k < perSystem; k++ {
			p := pairs[order[k]]
			s := spec.ScenarioSpec{
				Model:  spec.ModelRef{Name: p.model},
				Wafer:  spec.WaferRef{Name: p.wafer},
				System: spec.SystemRef{Name: sys},
			}
			if onReplay[k] {
				s.Cost = &spec.CostSpec{Backend: "replay"}
			}
			drawn[si] = append(drawn[si], s)
		}
	}
	var ops []sweepOp
	for k := 0; k < perSystem; k++ {
		for _, si := range r.Perm(len(systems)) {
			s := drawn[si][k]
			s.Name = fmt.Sprintf("sweep-%03d", len(ops))
			ops = append(ops, sweepOp{Spec: s})
		}
	}
	for _, i := range r.Perm(len(ops))[:max(1, len(ops)/20)] {
		ops[i].Verify = true
	}
	return ops
}

// searchOp is one solve of the search workload.
type searchOp struct {
	Model    string `json:"model"`
	Wafer    string `json:"wafer"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
}

// strategyMix is the per-repetition strategy count: weights .3/.2/.2/
// .1/.1/.1 over 32 solves.
var strategyMix = []struct {
	name string
	n    int
}{{"ga", 10}, {"anneal", 6}, {"hillclimb", 6}, {"dp", 4}, {"portfolio", 3}, {"multifid", 3}}

// searchPair is a (model, wafer) pair some configuration of which fits
// in memory, so a correct solver never returns an OOM gene.
type searchPair struct{ model, wafer string }

func searchPairs() []searchPair {
	var out []searchPair
	for _, wn := range sweepWafers {
		w, err := spec.LookupWafer(wn)
		if err != nil {
			panic(err) // registered at init
		}
		space := parallel.EnumerateConfigs(w.Dies(), true, 0)
		for _, mn := range spec.Models.Names() {
			m, err := spec.LookupModel(mn)
			if err != nil {
				panic(err)
			}
			cm, err := solver.BackendModel("", m, w)
			if err != nil {
				panic(err)
			}
			for _, c := range space {
				if cm.MemoryOK(c) {
					out = append(out, searchPair{mn, wn})
					break
				}
			}
		}
	}
	return out
}

// screenedPairs are the (model, wafer) pairs the screened strategies
// search. Surrogate training and screening cost differ by up to 2x
// between models and set the workload's tail, so the pairs are fixed
// rather than drawn: a seed's single draw would decide op_p90_ms on
// its own. Each strategy trains its own surrogate (the wafers differ),
// so every repetition's tail holds one training per strategy whatever
// order the seed puts the solves in.
var screenedPairs = map[string]searchPair{
	"portfolio": {"Llama2 7B", "wsc-4x8"},
	"multifid":  {"Llama2 7B", "wsc-4x8-a100match"},
}

// searchInputs draws 32 solves (6 in smoke mode, one per strategy):
// model, wafer and solver seed 1-8 uniformly, except that each
// screened strategy solves its screenedPairs entry with one seeded
// solver seed.
func searchInputs(seed int64, smoke bool) []searchOp {
	r := rng(seed, "search")
	pairs := searchPairs()
	var ops []searchOp
	for _, st := range strategyMix {
		n := st.n
		if smoke {
			n = 1
		}
		screenSeed := 1 + r.Int63n(8)
		for k := 0; k < n; k++ {
			var op searchOp
			if p, ok := screenedPairs[st.name]; ok {
				op = searchOp{Model: p.model, Wafer: p.wafer, Seed: screenSeed}
			} else {
				p := pairs[r.Intn(len(pairs))]
				op = searchOp{Model: p.model, Wafer: p.wafer, Seed: 1 + r.Int63n(8)}
			}
			op.Strategy = st.name
			ops = append(ops, op)
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// campaignOp is one survivability campaign: the default 5x3 fault grid
// over the model's TEMP-best configuration on wsc-4x8.
type campaignOp struct {
	Model  string `json:"model"`
	Trials int    `json:"trials"`
	Seed   int64  `json:"seed"`
}

// campaignWafer hosts every campaign (the Fig. 20 footing).
const campaignWafer = "wsc-4x8"

// campaignModels are the zoo models a repetition maps at set-up.
func campaignModels(smoke bool) []string {
	names := spec.Models.Names()
	if smoke {
		return names[:2]
	}
	return names
}

// campaignInputs runs two campaigns per zoo model and repetition
// (smoke: one for each of two models), in rounds holding each model
// once in seeded order, each campaign with its own seed and 8 trials
// per cell (2 in smoke mode). verify is the campaign re-run in-process.
func campaignInputs(seed int64, smoke bool) (ops []campaignOp, verify int) {
	r := rng(seed, "campaign")
	models := campaignModels(smoke)
	rounds, trials := 2, 8
	if smoke {
		rounds, trials = 1, 2
	}
	for k := 0; k < rounds; k++ {
		for _, i := range r.Perm(len(models)) {
			ops = append(ops, campaignOp{Model: models[i], Trials: trials, Seed: 1 + r.Int63n(1<<40)})
		}
	}
	return ops, r.Intn(len(ops))
}

// Serve workload inputs: a pool of request shapes the traffic draws
// from, plus fresh requests no cache has seen.

// poolSizes are the numbers of distinct request shapes: 29 solves and
// 19 sweeps (60/40); 3 and 2 in smoke mode.
func poolSizes(smoke bool) (solves, sweeps int) {
	if smoke {
		return 3, 2
	}
	return 29, 19
}

// slotPattern fixes the kind mix of every block of 20 requests: 11
// pool solves, 8 pool sweeps, 1 fresh sweep. The order inside a block
// is seeded.
const (
	blockSolves = 11
	blockSweeps = 8
	blockFresh  = 1
	blockLen    = blockSolves + blockSweeps + blockFresh
)

// tenants share the daemon's fair-share admission.
var tenants = []string{"team-a", "team-b", "team-c"}

// servePool builds the request shapes: solves are ga, anneal or
// hillclimb with the 4000-eval budget of examples/serve_mix on a
// memory-feasible pair; sweeps are any zoo model on either wafer
// under any registered system.
func servePool(seed int64, smoke bool) (solves, sweeps []spec.RequestSpec) {
	r := rng(seed, "serve-pool")
	pairs := searchPairs()
	strategies := []string{"ga", "anneal", "hillclimb"}
	nSolves, nSweeps := poolSizes(smoke)
	for i := 0; i < nSolves; i++ {
		p := pairs[r.Intn(len(pairs))]
		name := fmt.Sprintf("pool-solve-%02d", i)
		solves = append(solves, spec.RequestSpec{
			ID: name, Tenant: tenants[r.Intn(len(tenants))],
			Scenario: &spec.ScenarioSpec{
				Name: name, Model: spec.ModelRef{Name: p.model}, Wafer: spec.WaferRef{Name: p.wafer},
				Solver: &spec.SolverSpec{
					Strategy: strategies[r.Intn(len(strategies))], Seed: 1 + r.Int63n(8),
					Budget: &spec.BudgetSpec{Evals: 4000},
				},
			},
		})
	}
	models, systems := spec.Models.Names(), spec.Systems.Names()
	for i := 0; i < nSweeps; i++ {
		name := fmt.Sprintf("pool-sweep-%02d", i)
		sweeps = append(sweeps, spec.RequestSpec{
			ID: name, Tenant: tenants[r.Intn(len(tenants))],
			Scenario: &spec.ScenarioSpec{
				Name:   name,
				Model:  spec.ModelRef{Name: models[r.Intn(len(models))]},
				Wafer:  spec.WaferRef{Name: sweepWafers[r.Intn(len(sweepWafers))]},
				System: spec.SystemRef{Name: systems[r.Intn(len(systems))]},
			},
		})
	}
	return solves, sweeps
}

// request is one generated serve request.
type request struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"` // "solve", "sweep" (pool) or "fresh"
	Shape int    `json:"shape"`
	Body  []byte `json:"body"`
	// Verify marks the seeded 5% compared against an in-process solve.
	Verify bool `json:"verify,omitempty"`
}

// requestStream yields the serve workload's requests in order: kinds
// follow the seeded block pattern, pool shapes are Zipf(1.1) draws
// within their kind, and each fresh request is a TEMP sweep on an
// inline wsc-4x8 whose D2D bandwidth is scaled by a seeded factor in
// [0.5, 2], so it misses every cache. Fresh sweeps cover TEMP's DP x
// TATP x CP sub-space (TP and SP capped at 1): TCME pricing on a cold
// topology at about the cost of a pool solve, so that a few fresh
// requests do not decide the latency tail on their own.
type requestStream struct {
	solves, sweeps []spec.RequestSpec
	r              *rand.Rand
	zSolve, zSweep *rand.Zipf
	block          []string
	next           int
}

func newRequestStream(seed int64, smoke bool) *requestStream {
	solves, sweeps := servePool(seed, smoke)
	r := rng(seed, "serve-stream")
	return &requestStream{
		solves: solves, sweeps: sweeps, r: r,
		zSolve: rand.NewZipf(r, 1.1, 1, uint64(len(solves)-1)),
		zSweep: rand.NewZipf(r, 1.1, 1, uint64(len(sweeps)-1)),
	}
}

// Next returns the next request of the stream.
func (s *requestStream) Next() request {
	if len(s.block) == 0 {
		for i := 0; i < blockSolves; i++ {
			s.block = append(s.block, "solve")
		}
		for i := 0; i < blockSweeps; i++ {
			s.block = append(s.block, "sweep")
		}
		for i := 0; i < blockFresh; i++ {
			s.block = append(s.block, "fresh")
		}
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	q := request{Index: s.next, Kind: s.block[0], Verify: s.r.Intn(20) == 0}
	s.block = s.block[1:]
	s.next++
	var req spec.RequestSpec
	switch q.Kind {
	case "solve":
		q.Shape = int(s.zSolve.Uint64())
		req = s.solves[q.Shape]
	case "sweep":
		q.Shape = int(s.zSweep.Uint64())
		req = s.sweeps[q.Shape]
	default:
		models := spec.Models.Names()
		name := fmt.Sprintf("fresh-%d", q.Index)
		req = spec.RequestSpec{
			ID: name, Tenant: tenants[s.r.Intn(len(tenants))],
			Scenario: &spec.ScenarioSpec{
				Name:  name,
				Model: spec.ModelRef{Name: models[s.r.Intn(len(models))]},
				System: spec.SystemRef{Spec: &spec.SystemSpec{
					Scheme: "temp", Envelope: &spec.EnvelopeSpec{MaxTP: 1, MaxSP: 1},
				}},
				Wafer: spec.WaferRef{Spec: &spec.WaferSpec{
					Name: name, Rows: 4, Cols: 8,
					Link: &spec.LinkSpec{Bandwidth: 4e12 * (0.5 + 1.5*s.r.Float64())},
				}},
			},
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // specs built above always marshal
	}
	q.Body = body
	return q
}

// poolRequests lists every pool shape in a fixed order (solves, then
// sweeps): the priming and warm-up passes.
func (s *requestStream) poolRequests() []request {
	var out []request
	for i, req := range s.solves {
		body, _ := json.Marshal(req)
		out = append(out, request{Index: -1, Kind: "solve", Shape: i, Body: body})
	}
	for i, req := range s.sweeps {
		body, _ := json.Marshal(req)
		out = append(out, request{Index: -1, Kind: "sweep", Shape: i, Body: body})
	}
	return out
}

// arrivals returns Poisson arrival offsets (seconds) at rate per
// second over dur seconds, from their own seeded stream.
func arrivals(seed int64, phase string, rate, dur float64) []float64 {
	r := rng(seed, "serve-arrivals-"+phase)
	var out []float64
	for t := r.ExpFloat64() / rate; t < dur; t += r.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}
