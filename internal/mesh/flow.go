package mesh

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Flow is one point-to-point transfer inside a communication phase:
// Bytes of payload moving from Src to Dst along Route.
type Flow struct {
	Src, Dst DieID
	Bytes    float64
	Route    Path
	Payload  Payload
}

// Payload tags a flow for the TCME optimizer (§VI-B). Seq is the
// concurrent sequence the flow belongs to (collective.Merge sets it),
// whose flows a group flip reverses as a unit. Datum names the data
// carried (a ring position, a stream sub-tensor): flows of one Payload
// from one source carry the same data and may merge into a multicast
// tree.
type Payload struct{ Seq, Datum int32 }

// Phase is a set of flows that execute concurrently. A phase
// completes when its slowest link has drained; consecutive phases are
// serialized by the caller.
type Phase struct {
	// Label is always empty: no lowering writes it and nothing reads
	// it. It stays because cost.Breakdown serializes tcme.Result's
	// (empty) Phase, so dropping the field would change the bytes of
	// every served result and of every other JSON encoding of a
	// Breakdown (the benchmark's result digests hash them). The disk
	// memo does not store that Phase, so no memo file depends on it.
	Label string
	Flows []Flow
}

// Equal reports whether p and q carry the same flows in the same
// order: equal Src, Dst, Bytes and Payload, and routes equal hop for
// hop. Lowerings and the TCME optimizer read nothing else of a phase,
// so equal phases lower and optimize alike. Phases that share one flow
// slice (the repeated rounds of a ring lowering) are equal without a
// walk.
func (p Phase) Equal(q Phase) bool {
	if len(p.Flows) != len(q.Flows) {
		return false
	}
	if p.shares(q) {
		return true
	}
	for i := range p.Flows {
		a, b := &p.Flows[i], &q.Flows[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Bytes != b.Bytes || a.Payload != b.Payload ||
			!slices.Equal(a.Route, b.Route) {
			return false
		}
	}
	return true
}

// shares reports whether p and q are one non-empty flow slice: the
// same first flow and the same length. Lowerings, Merge, templates and
// their materializations keep a repeated phase shared this way, and
// nothing writes into a phase's flows in place, so a shared phase is
// copied, profiled and compared once.
func (p Phase) shares(q Phase) bool {
	return len(p.Flows) > 0 && len(p.Flows) == len(q.Flows) && &p.Flows[0] == &q.Flows[0]
}

// LinkLoads accumulates the byte load each alive link carries.
type LinkLoads map[Link]float64

// forEachLink calls fn for every (flow index, traversed link) pair of
// the phase, in flow order then route order. It is the single
// load-accumulation walk shared by Loads, the Time kernel and the
// template profiles, so their float summation orders cannot drift.
func (p Phase) forEachLink(fn func(i int, l Link)) {
	for i := range p.Flows {
		r := p.Flows[i].Route
		for j := 0; j+1 < len(r); j++ {
			fn(i, Link{r[j], r[j+1]})
		}
	}
}

// Loads computes the per-link byte loads of the phase.
func (p Phase) Loads() LinkLoads {
	out := make(LinkLoads)
	p.forEachLink(func(i int, l Link) { out[l] += p.Flows[i].Bytes })
	return out
}

// PhaseTime is the latency estimate for one phase: the bottleneck
// link's serialization time (its byte load over granularity-adjusted
// bandwidth) plus the longest flow's hop latency. This is the
// standard α–β contention model the wafer cost model builds on.
type PhaseTime struct {
	// Serialization is the bottleneck-link drain time in seconds.
	Serialization float64
	// HopLatency is the per-hop propagation of the longest route.
	HopLatency float64
	// Bottleneck is the most loaded link.
	Bottleneck Link
	// BottleneckBytes is its byte load.
	BottleneckBytes float64
	// TotalBytes is the payload volume summed over flows (for
	// energy accounting each byte is charged per hop separately;
	// see LinkBytes).
	TotalBytes float64
	// LinkBytes is the volume summed over every (flow, link) pair —
	// the quantity D2D energy scales with.
	LinkBytes float64
	// MaxHops is the longest route length.
	MaxHops int
}

// Total returns the phase completion time.
func (pt PhaseTime) Total() float64 { return pt.Serialization + pt.HopLatency }

// timeScratch holds the dense per-link accumulators of the Time
// kernel, reused through a pool so steady-state evaluation allocates
// nothing. Slices are indexed by canonical link ID and grown to the
// largest topology seen.
type timeScratch struct {
	loads    []float64
	msgBytes []float64
	msgCount []int32
}

var timePool = sync.Pool{New: func() any { return new(timeScratch) }}

// grab sizes the scratch for n links and zeroes it.
func (s *timeScratch) grab(n int) {
	if cap(s.loads) < n {
		s.loads = make([]float64, n)
		s.msgBytes = make([]float64, n)
		s.msgCount = make([]int32, n)
		return
	}
	s.loads = s.loads[:n]
	s.msgBytes = s.msgBytes[:n]
	s.msgCount = s.msgCount[:n]
	for i := range s.loads {
		s.loads[i] = 0
		s.msgBytes[i] = 0
		s.msgCount[i] = 0
	}
}

// Time evaluates the phase on topology t.
//
// Every route must be a sequence of mesh-adjacent steps — the contract
// Route, RouteWeighted and MulticastTree build to, since the wafer has
// no long-distance links. A step between non-adjacent dies has no link
// ID and panics. The kernel accumulates per-link loads into flat
// arrays over the canonical link index and scans IDs in ascending
// order for the bottleneck, so ties break by ascending (From, To) and
// each accumulator sums in flow order, then route order.
func (t *Topology) Time(p Phase) PhaseTime {
	var out PhaseTime
	for i := range p.Flows {
		out.TotalBytes += p.Flows[i].Bytes
		if h := p.Flows[i].Route.Hops(); h > out.MaxHops {
			out.MaxHops = h
		}
	}
	s := timePool.Get().(*timeScratch)
	s.grab(len(t.links))
	p.forEachLink(func(i int, l Link) {
		id := t.LinkID(l)
		bytes := p.Flows[i].Bytes
		s.loads[id] += bytes
		s.msgBytes[id] += bytes
		s.msgCount[id]++
		out.LinkBytes += bytes
	})
	for id := range s.loads {
		n := s.msgCount[id]
		if n == 0 {
			continue
		}
		mean := s.msgBytes[id] / float64(n)
		bw := t.link.EffectiveBandwidth(mean)
		ser := s.loads[id] / bw
		if ser > out.Serialization {
			out.Serialization = ser
			out.Bottleneck = t.links[id]
			out.BottleneckBytes = s.loads[id]
		}
	}
	timePool.Put(s)
	out.HopLatency = float64(out.MaxHops) * t.link.Latency
	return out
}

// seqSum accumulates phases executed back to back: times and volumes
// add, MaxHops is the longest route, and the bottleneck fields describe
// the slowest phase (the earliest on ties).
type seqSum struct {
	out   PhaseTime
	worst float64
}

func (s *seqSum) add(pt PhaseTime) {
	s.out.Serialization += pt.Serialization
	s.out.HopLatency += pt.HopLatency
	s.out.TotalBytes += pt.TotalBytes
	s.out.LinkBytes += pt.LinkBytes
	if pt.MaxHops > s.out.MaxHops {
		s.out.MaxHops = pt.MaxHops
	}
	if pt.Total() > s.worst {
		s.worst = pt.Total()
		s.out.Bottleneck = pt.Bottleneck
		s.out.BottleneckBytes = pt.BottleneckBytes
	}
}

// SeqTime evaluates a sequence of phases executed back to back and
// returns the summed PhaseTime (bottleneck fields describe the
// slowest phase).
func (t *Topology) SeqTime(phases []Phase) PhaseTime {
	var s seqSum
	for _, p := range phases {
		s.add(t.Time(p))
	}
	return s.out
}

// MulticastTree merges a set of same-payload flows from a common
// source into a tree: each link carries the payload once instead of
// once per destination. It returns one single-hop Flow per tree link,
// in ascending (From, To) order, so the link-serialization model
// charges every tree link exactly one payload.
func MulticastTree(t *Topology, src DieID, dsts []DieID, bytes float64, payload Payload) []Flow {
	if len(dsts) == 0 {
		return nil
	}
	// Greedy nearest-attachment Steiner heuristic: grow the tree
	// from src, always attaching the closest remaining destination
	// via a shortest path to any node already in the tree.
	inTree := map[DieID]bool{src: true}
	treeLinks := map[Link]bool{}
	remaining := append([]DieID(nil), dsts...)
	SortDies(remaining)
	for len(remaining) > 0 {
		bestIdx, bestLen := -1, 0
		var bestPath Path
		for i, d := range remaining {
			if inTree[d] {
				// Already covered by an earlier attachment.
				bestIdx, bestPath = i, Path{d}
				break
			}
			// Shortest path from d to the current tree.
			p := t.RouteWeighted(d, src, func(l Link) float64 { return 0 })
			// Trim at first tree node.
			for j, node := range p {
				if inTree[node] {
					p = p[:j+1]
					break
				}
			}
			if bestIdx == -1 || len(p) < bestLen {
				bestIdx, bestLen, bestPath = i, len(p), p
			}
		}
		d := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if len(bestPath) == 0 {
			continue // unreachable destination (faulted); skip
		}
		// bestPath runs from d toward the tree; traffic flows the
		// other way (tree → d).
		for i := len(bestPath) - 1; i > 0; i-- {
			treeLinks[Link{bestPath[i], bestPath[i-1]}] = true
			inTree[bestPath[i-1]] = true
		}
		inTree[d] = true
	}
	// Emit one flow per tree link so that the serialization model
	// charges each link exactly once.
	links := make([]Link, 0, len(treeLinks))
	for l := range treeLinks {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	out := make([]Flow, 0, len(links))
	for _, l := range links {
		out = append(out, Flow{
			Src:     l.From,
			Dst:     l.To,
			Bytes:   bytes,
			Route:   Path{l.From, l.To},
			Payload: payload,
		})
	}
	return out
}

// ValidatePhase checks that every flow's route is connected, starts
// at Src and ends at Dst over alive links. Tests use it to check
// lowerings and optimized phases.
func (t *Topology) ValidatePhase(p Phase) error {
	for i, f := range p.Flows {
		if len(f.Route) == 0 {
			return fmt.Errorf("mesh: flow %d %+v has empty route", i, f.Payload)
		}
		if f.Route[0] != f.Src || f.Route[len(f.Route)-1] != f.Dst {
			return fmt.Errorf("mesh: flow %d %+v route endpoints %v do not match %d→%d",
				i, f.Payload, f.Route, f.Src, f.Dst)
		}
		if !f.Route.Valid(t) {
			return fmt.Errorf("mesh: flow %d %+v route %v crosses a missing or dead link",
				i, f.Payload, f.Route)
		}
		if f.Bytes < 0 {
			return fmt.Errorf("mesh: flow %d %+v has negative bytes", i, f.Payload)
		}
	}
	return nil
}
