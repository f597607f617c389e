package mesh

import (
	"sync/atomic"

	"temp/internal/unit"
)

// PhaseTemplate is an immutable, byte-invariant compiled phase
// sequence: the routes and payloads of a lowered collective or stream
// depend only on the topology and the ordered die groups, while every
// flow carries one byte count that rescales with the query (ring
// chunks, stream sub-tensors). Compiling the structure once and
// materializing per query removes route computation — the dominant
// cost of lowering — from the evaluation hot path.
//
// All flows of a template share one backing array, and a repeated
// phase shares its predecessor's flows there, so Materialize is
// exactly two allocations. Templates are safe for concurrent use: the
// returned phases share the template's routes and payload strings,
// and their repeated phases share flows, which consumers never mutate
// in place (the TCME optimizer clones phases and replaces routes
// wholesale).
type PhaseTemplate struct {
	phases []Phase
	flows  []Flow
	// prof heads a tiny list of SoA link-load profiles, one per routing
	// owner (almost always exactly one: templates are compiled from one
	// owner's routes and only ever timed on it or its link variants).
	prof atomic.Pointer[LinkProfile]
}

// LinkProfile is the structure-of-arrays distillation of a phase
// sequence on one topology: for every phase, the touched canonical
// link IDs in ascending order with their traversal counts, plus the
// per-phase flow count, total traversal count and longest route.
// Because every flow carries one byte value per evaluation (a
// template's flows, or TCME's optimization of them), these counts are
// sufficient to reproduce the dense Time walk bit-for-bit — each
// link's load is the same value added count times — without zeroing
// per-link scratch or re-deriving link IDs per candidate.
type LinkProfile struct {
	// topo is the routing owner of the topology the profile was
	// compiled on: link variants of one grid share its profiles.
	topo *Topology
	// off[p]..off[p+1] bounds phase p's entries in ids/counts.
	off    []int32
	ids    []int32
	counts []int32
	// flows, travs and hops are per-phase: flow count, total (flow,
	// link) traversals and the longest route's hop count.
	flows []int32
	travs []int32
	hops  []int32
	// next links profiles for other routing owners (rare; bounded by
	// the number of grids and frozen faulted meshes that time the
	// template).
	next *LinkProfile
}

// profileFor returns the template's SoA profile on t's routing owner,
// compiling it on first use. Lookup is one atomic load plus a pointer
// compare, so the steady-state evaluation path stays allocation-free.
func (t *Topology) profileFor(tmpl *PhaseTemplate) *LinkProfile {
	head := tmpl.prof.Load()
	for p := head; p != nil; p = p.next {
		if p.topo == t.owner {
			return p
		}
	}
	p := t.CompileProfile(tmpl.phases)
	p.next = head
	// A lost race leaves the other builder's profile installed; ours
	// is still correct for this call and simply rebuilt next time.
	tmpl.prof.CompareAndSwap(head, p)
	return p
}

// CompileProfile counts each phase's per-link traversals through the
// same forEachLink walk the timing kernels use. Flow byte values and
// link parameters are ignored: the profile is timed at a byte value
// per query (see LoweredSeq.Prof) on any topology of t's routing
// owner, and keeps no reference to the phases. A phase sharing its
// predecessor's flow slice repeats its predecessor's entries without
// a walk.
func (t *Topology) CompileProfile(phases []Phase) *LinkProfile {
	n := len(phases)
	p := &LinkProfile{
		topo:  t.owner,
		off:   make([]int32, 1, n+1),
		flows: make([]int32, 0, n),
		travs: make([]int32, 0, n),
		hops:  make([]int32, 0, n),
	}
	s := timePool.Get().(*timeScratch)
	for i, ph := range phases {
		if i > 0 && ph.shares(phases[i-1]) {
			lo, hi := p.off[i-1], p.off[i]
			p.ids = append(p.ids, p.ids[lo:hi]...)
			p.counts = append(p.counts, p.counts[lo:hi]...)
			p.off = append(p.off, int32(len(p.ids)))
			p.flows = append(p.flows, p.flows[i-1])
			p.travs = append(p.travs, p.travs[i-1])
			p.hops = append(p.hops, p.hops[i-1])
			continue
		}
		s.grab(len(t.links))
		maxHops := 0
		for i := range ph.Flows {
			if h := ph.Flows[i].Route.Hops(); h > maxHops {
				maxHops = h
			}
		}
		travs := int32(0)
		ph.forEachLink(func(i int, l Link) {
			s.msgCount[t.LinkID(l)]++
			travs++
		})
		for id, c := range s.msgCount {
			if c > 0 {
				p.ids = append(p.ids, int32(id))
				p.counts = append(p.counts, c)
			}
		}
		p.off = append(p.off, int32(len(p.ids)))
		p.flows = append(p.flows, int32(len(ph.Flows)))
		p.travs = append(p.travs, travs)
		p.hops = append(p.hops, int32(maxHops))
	}
	timePool.Put(s)
	return p
}

// timePhaseProfiled evaluates phase ph of a profile with every flow
// carrying scale bytes, bit-identical to Time on the phase
// materialized at scale bytes: per-link loads are the same repeated
// additions (unit.RepAdd), the bottleneck scan visits the same IDs in
// the same ascending order with the same strictly-greater tie-break,
// and the aggregate fields replicate their walk-order summation
// chains.
func (t *Topology) timePhaseProfiled(p *LinkProfile, ph int, scale float64) PhaseTime {
	var out PhaseTime
	out.TotalBytes = unit.RepAdd(scale, p.flows[ph])
	out.LinkBytes = unit.RepAdd(scale, p.travs[ph])
	out.MaxHops = int(p.hops[ph])
	lastN := int32(-1)
	var load float64
	for k := p.off[ph]; k < p.off[ph+1]; k++ {
		n := p.counts[k]
		if n != lastN {
			load = unit.RepAdd(scale, n)
			lastN = n
		}
		mean := load / float64(n)
		bw := t.link.EffectiveBandwidth(mean)
		if ser := load / bw; ser > out.Serialization {
			out.Serialization = ser
			out.Bottleneck = t.links[p.ids[k]]
			out.BottleneckBytes = load
		}
	}
	out.HopLatency = float64(out.MaxHops) * t.link.Latency
	return out
}

// NewPhaseTemplate compiles phases into a template. The input is
// deep-copied at the phase/flow level; flow Bytes values are dropped
// (they are supplied by Materialize). A phase sharing its
// predecessor's flow slice (a repeated ring step or stream round)
// stays shared: its flows are copied once.
func NewPhaseTemplate(phases []Phase) *PhaseTemplate {
	t := &PhaseTemplate{phases: make([]Phase, len(phases))}
	total := 0
	for i, p := range phases {
		if i == 0 || !p.shares(phases[i-1]) {
			total += len(p.Flows)
		}
	}
	t.flows = make([]Flow, 0, total)
	for i, p := range phases {
		if i > 0 && p.shares(phases[i-1]) {
			t.phases[i] = t.phases[i-1]
			continue
		}
		start := len(t.flows)
		t.flows = append(t.flows, p.Flows...)
		end := len(t.flows)
		t.phases[i] = Phase{Flows: t.flows[start:end:end]}
	}
	for i := range t.flows {
		t.flows[i].Bytes = 0
	}
	return t
}

// Phases returns the number of phases in the template.
func (t *PhaseTemplate) Phases() int { return len(t.phases) }

// LoweredSeq pairs a compiled template with the per-flow byte value
// one evaluation assigns it — a phase sequence that never needs to be
// materialized to be timed.
type LoweredSeq struct {
	Tmpl  *PhaseTemplate
	Bytes float64
	// Prof, when set, is timed in place of Tmpl's own profile: a
	// profile of phases derived from Tmpl whose flows still all carry
	// Bytes (TCME's optimization of the template), compiled with
	// CompileProfile on a topology of the same routing owner.
	Prof *LinkProfile
}

// SeqTimeLowered evaluates the concatenation of scaled templates
// exactly as SeqTime would evaluate the materialized concatenation —
// same phase order, same per-accumulator float summation order — but
// without materializing anything. This is the zero-allocation
// collective path of the cost model.
//
// Phases run through each template's compiled SoA link profile (see
// LinkProfile), so pricing K candidate byte sizes against one
// template costs K bottleneck scans over the touched links instead of
// K full route walks with per-link scratch zeroing.
func (t *Topology) SeqTimeLowered(seq []LoweredSeq) PhaseTime {
	var s seqSum
	for _, ls := range seq {
		prof := ls.Prof
		if prof == nil {
			if ls.Tmpl == nil {
				continue
			}
			prof = t.profileFor(ls.Tmpl)
		}
		for i := range prof.flows {
			s.add(t.timePhaseProfiled(prof, i, ls.Bytes))
		}
	}
	return s.out
}

// Materialize returns the template's phase sequence with every flow
// carrying bytes. Phase and flow order match the uncompiled lowering
// exactly, so downstream float accumulation is bit-identical. Phases
// the template shares stay shared, so callers read the result and
// never write into a returned flow.
func (t *PhaseTemplate) Materialize(bytes float64) []Phase {
	if len(t.phases) == 0 {
		return nil
	}
	flows := make([]Flow, len(t.flows))
	copy(flows, t.flows)
	for i := range flows {
		flows[i].Bytes = bytes
	}
	phases := make([]Phase, len(t.phases))
	off := 0
	for i := range t.phases {
		if i > 0 && t.phases[i].shares(t.phases[i-1]) {
			phases[i] = phases[i-1]
			continue
		}
		n := len(t.phases[i].Flows)
		phases[i] = Phase{Flows: flows[off : off+n : off+n]}
		off += n
	}
	return phases
}
