// Package collective lowers the communication primitives of
// distributed training — all-reduce, all-gather, reduce-scatter and
// point-to-point transfers — onto wafer mesh flows. The ring
// algorithms operate over an ordered die list (a physical ring or
// chain produced by the placement layer); when the ring does not
// physically close, the wrap-around step is routed multi-hop across
// the mesh, which is exactly the topology mismatch the paper's
// baselines suffer from.
//
// The lowerings are plain functions of the topology's routing state:
// nothing here memoizes one. The evaluation state that prices them
// (cost) merges each group set's lowerings through Compile once and
// keeps the template.
package collective

import (
	"fmt"
	"sync/atomic"

	"temp/internal/mesh"
)

// ringSteps lowers steps ring steps in which every position i sends
// chunkBytes to position (i+1) mod N along the order. On an open chain
// the N-1→0 step is a multi-hop route. Every step routes the same die
// pairs, so one step is routed and formatted and the phases repeat it,
// sharing its flows. Payloads are "<payload>.pos<i>", naming the
// sending position and not the step: TCME merges only flows of equal
// payload from one source, Merge aligns one step of each sequence per
// phase, so within a phase the position alone keeps a ring's flows
// apart.
func ringSteps(t *mesh.Topology, order []mesh.DieID, chunkBytes float64, payload string, steps int) []mesh.Phase {
	n := len(order)
	var step mesh.Phase
	for i := 0; i < n; i++ {
		src, dst := order[i], order[(i+1)%n]
		route := t.Route(src, dst)
		if route == nil {
			continue
		}
		step.Flows = append(step.Flows, mesh.Flow{
			Src:     src,
			Dst:     dst,
			Bytes:   chunkBytes,
			Route:   route,
			Payload: fmt.Sprintf("%s.pos%d", payload, i),
		})
	}
	phases := make([]mesh.Phase, steps)
	for s := range phases {
		phases[s] = step
	}
	return phases
}

// RingAllReduce lowers a bandwidth-optimal ring all-reduce of bytes
// per participant: a reduce-scatter pass followed by an all-gather
// pass, 2(N-1) steps of bytes/N chunks. Its phases share one step's
// flows, and every lowering here shares the topology's routes: callers
// read the result and never write into a returned flow.
func RingAllReduce(t *mesh.Topology, order []mesh.DieID, bytes float64) []mesh.Phase {
	n := len(order)
	if n <= 1 || bytes <= 0 {
		return nil
	}
	return ringSteps(t, order, bytes/float64(n), "ar", 2*(n-1))
}

// RingAllGather lowers an all-gather where every participant
// contributes shardBytes and ends holding all N shards: N-1 ring
// steps of shardBytes each. Its phases share flows (see
// RingAllReduce).
func RingAllGather(t *mesh.Topology, order []mesh.DieID, shardBytes float64) []mesh.Phase {
	n := len(order)
	if n <= 1 || shardBytes <= 0 {
		return nil
	}
	return ringSteps(t, order, shardBytes, "ag", n-1)
}

// RingReduceScatter lowers a reduce-scatter of bytes per participant
// into N-1 ring steps of bytes/N chunks. Its phases share flows (see
// RingAllReduce).
func RingReduceScatter(t *mesh.Topology, order []mesh.DieID, bytes float64) []mesh.Phase {
	n := len(order)
	if n <= 1 || bytes <= 0 {
		return nil
	}
	return ringSteps(t, order, bytes/float64(n), "rs", n-1)
}

// P2P lowers a single point-to-point transfer. Its route is the
// topology's (see RingAllReduce).
func P2P(t *mesh.Topology, src, dst mesh.DieID, bytes float64, payload string) []mesh.Phase {
	if bytes <= 0 || src == dst {
		return nil
	}
	route := t.Route(src, dst)
	if route == nil {
		return nil
	}
	return []mesh.Phase{{
		Flows: []mesh.Flow{{Src: src, Dst: dst, Bytes: bytes, Route: route, Payload: payload}},
	}}
}

// compiled counts Compile calls over the process lifetime.
var compiled atomic.Int64

// Compile merges concurrently executing lowerings (Merge) into one
// byte-invariant template. It is the only place a lowering becomes a
// template; the caller keeps it.
func Compile(seqs ...[]mesh.Phase) *mesh.PhaseTemplate {
	compiled.Add(1)
	return mesh.NewPhaseTemplate(Merge(seqs...))
}

// LoweringStats counts compiled lowering templates. Templates and
// Misses both count Compile calls, each a miss of the caller's memo;
// Hits is always zero, since nothing below that memo caches a
// lowering.
type LoweringStats struct {
	Templates    int
	Hits, Misses int64
}

// CacheStats snapshots the lowering counters.
func CacheStats() LoweringStats {
	n := compiled.Load()
	return LoweringStats{Templates: int(n), Misses: n}
}

// Merge combines the flows of several concurrently executing phase
// sequences into a single phase sequence, aligning step k of every
// sequence into one shared phase. This is how hybrid parallelism's
// overlapping collectives (e.g. FSDP all-gather + TATP P2P, Fig. 11)
// are exposed to the contention model and the TCME optimizer. Every
// flow's payload gains the prefix "s<i>." of its sequence. When every
// sequence's step k equals its step k-1 (ring collectives and
// ring-schedule streams repeat one step), merged step k is merged step
// k-1 and shares its flows.
func Merge(seqs ...[]mesh.Phase) []mesh.Phase {
	maxLen := 0
	for _, s := range seqs {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	out := make([]mesh.Phase, maxLen)
	for k := 0; k < maxLen; k++ {
		if k > 0 && repeatsStep(seqs, k) {
			out[k] = out[k-1]
			continue
		}
		for si, s := range seqs {
			if k < len(s) {
				for _, f := range s[k].Flows {
					f.Payload = fmt.Sprintf("s%d.%s", si, f.Payload)
					out[k].Flows = append(out[k].Flows, f)
				}
			}
		}
	}
	return out
}

// repeatsStep reports whether every sequence's step k equals its step
// k-1. It compares content, not pointers: a sequence's equal steps
// need not share flows (a materialized template copies each step). A
// sequence that has ended contributes an empty step.
func repeatsStep(seqs [][]mesh.Phase, k int) bool {
	step := func(s []mesh.Phase, k int) mesh.Phase {
		if k < len(s) {
			return s[k]
		}
		return mesh.Phase{}
	}
	for _, s := range seqs {
		if !step(s, k).Equal(step(s, k-1)) {
			return false
		}
	}
	return true
}
