package mesh_test

import (
	"testing"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/stream"
	"temp/internal/unit"
)

// faultedMesh returns an interned 4×8 mesh with links cut inside the
// top-left 2×4 block, so routes through it are RouteWeighted detours.
func faultedMesh(t *testing.T) *mesh.Topology {
	t.Helper()
	c := mesh.Shared(4, 8, hw.TableID2D()).Clone()
	for _, l := range []mesh.Link{{From: 1, To: 2}, {From: 9, To: 10}, {From: 3, To: 11}} {
		c.SetLinkAlive(l, false)
	}
	tp := c.Intern()
	if !tp.Connected() {
		t.Fatal("faulted mesh is disconnected")
	}
	return tp
}

// faultedLowerings lowers collectives and stream schedules onto tp,
// plus a multicast tree and a chain of routed transfers. Every flow of
// one lowering carries the same bytes, so each lowering also compiles
// to a template.
func faultedLowerings(tp *mesh.Topology) map[string][]mesh.Phase {
	block := mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3}
	ring, _ := block.RingPath(tp)
	scattered := []mesh.DieID{0, 2, 13, 19}
	var chain mesh.Phase
	hops := []mesh.DieID{0, 3, 8, 11}
	for i := 0; i+1 < len(hops); i++ {
		chain.Flows = append(chain.Flows, mesh.Flow{Src: hops[i], Dst: hops[i+1], Bytes: 2 * unit.MB,
			Route: tp.Route(hops[i], hops[i+1]), Payload: "c"})
	}
	return map[string][]mesh.Phase{
		"allreduce": collective.RingAllReduce(tp, ring, 8*unit.MB),
		"broadcast": {{Flows: mesh.MulticastTree(tp, 0, []mesh.DieID{2, 3, 10, 11}, 4*unit.MB, "w")}},
		"chain":     {chain},
		"stream":    stream.Orchestrate(tp, block.DiesOn(tp), &block).Phases(3 * unit.MB),
		"fallback":  stream.Orchestrate(tp, scattered, nil).Phases(unit.MB),
	}
}

// seqGeneric folds reference-kernel phase times the way SeqTime does.
func seqGeneric(tp *mesh.Topology, phases []mesh.Phase) mesh.PhaseTime {
	var out mesh.PhaseTime
	var worst float64
	for _, p := range phases {
		pt := mesh.TimeGeneric(tp, p)
		out.Serialization += pt.Serialization
		out.HopLatency += pt.HopLatency
		out.TotalBytes += pt.TotalBytes
		out.LinkBytes += pt.LinkBytes
		if pt.MaxHops > out.MaxHops {
			out.MaxHops = pt.MaxHops
		}
		if pt.Total() > worst {
			worst = pt.Total()
			out.Bottleneck = pt.Bottleneck
			out.BottleneckBytes = pt.BottleneckBytes
		}
	}
	return out
}

// TestFaultedMeshMatchesGenericKernel times real lowerings whose
// routes detour around dead links: the dense kernel and the template
// profile must both equal the reference kernel bit for bit.
func TestFaultedMeshMatchesGenericKernel(t *testing.T) {
	tp := faultedMesh(t)
	detours := 0
	for name, phases := range faultedLowerings(tp) {
		for i, p := range phases {
			if err := tp.ValidatePhase(p); err != nil {
				t.Fatalf("%s phase %d: %v", name, i, err)
			}
			for _, f := range p.Flows {
				if f.Route.Hops() > tp.HopDistance(f.Src, f.Dst) {
					detours++
				}
			}
			if got, want := tp.Time(p), mesh.TimeGeneric(tp, p); got != want {
				t.Errorf("%s phase %d: Time = %+v, reference = %+v", name, i, got, want)
			}
		}
		tmpl := mesh.NewPhaseTemplate(phases)
		// Byte values with inexact binary sums, so a link's repeated
		// additions differ from one multiplication.
		seq := []mesh.LoweredSeq{{Tmpl: tmpl, Bytes: 1e7 / 3}, {Tmpl: tmpl, Bytes: 1234.567}}
		if got, want := tp.SeqTimeLowered(seq), seqGeneric(tp, mesh.MaterializeSeq(seq)); got != want {
			t.Errorf("%s: SeqTimeLowered = %+v, reference = %+v", name, got, want)
		}
	}
	if detours == 0 {
		t.Fatal("no lowering routed around a dead link")
	}
}
