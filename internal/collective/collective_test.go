package collective

import (
	"math"
	"strings"
	"testing"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/unit"
)

func topo(r, c int) *mesh.Topology { return mesh.New(r, c, hw.TableID2D()) }

func ringOrder(t *mesh.Topology, rect mesh.Rect) []mesh.DieID {
	p, ok := rect.RingPath(t)
	if !ok {
		panic("rect not ring capable")
	}
	return p
}

func TestRingAllReducePhaseCount(t *testing.T) {
	tp := topo(2, 4)
	order := ringOrder(tp, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3})
	phases := RingAllReduce(tp, order, 64*unit.MB)
	if got, want := len(phases), 2*(len(order)-1); got != want {
		t.Fatalf("phases = %d, want %d", got, want)
	}
	for _, ph := range phases {
		if err := tp.ValidatePhase(ph); err != nil {
			t.Fatal(err)
		}
		if len(ph.Flows) != len(order) {
			t.Fatalf("phase has %d flows, want %d", len(ph.Flows), len(order))
		}
	}
}

// TestRingAllReduceVolume: ring all-reduce moves 2(N-1)/N × bytes per
// participant — the bandwidth-optimal volume.
func TestRingAllReduceVolume(t *testing.T) {
	tp := topo(2, 4)
	order := ringOrder(tp, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3})
	bytes := 64 * unit.MB
	n := float64(len(order))
	var total float64
	for _, ph := range RingAllReduce(tp, order, bytes) {
		for _, f := range ph.Flows {
			total += f.Bytes
		}
	}
	want := 2 * (n - 1) / n * bytes * n // per participant × N participants
	if math.Abs(total-want)/want > 1e-9 {
		t.Errorf("all-reduce volume = %v, want %v", total, want)
	}
}

func TestRingAllReduceOnPhysicalRingIsSingleHop(t *testing.T) {
	tp := topo(2, 4)
	order := ringOrder(tp, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3})
	for _, ph := range RingAllReduce(tp, order, unit.MB) {
		for _, f := range ph.Flows {
			if f.Route.Hops() != 1 {
				t.Fatalf("flow %v crosses %d hops on a physical ring", f, f.Route.Hops())
			}
		}
	}
}

// TestRingAllReduceOnChainHasLongWrap: without a physical ring, the
// wrap step is multi-hop — the baseline inefficiency on WSC meshes.
func TestRingAllReduceOnChainHasLongWrap(t *testing.T) {
	tp := topo(1, 8)
	order := mesh.Rect{R0: 0, C0: 0, R1: 0, C1: 7}.DiesOn(tp)
	maxHops := 0
	for _, ph := range RingAllReduce(tp, order, unit.MB) {
		for _, f := range ph.Flows {
			if h := f.Route.Hops(); h > maxHops {
				maxHops = h
			}
		}
	}
	if maxHops != 7 {
		t.Errorf("chain all-reduce max hops = %d, want 7", maxHops)
	}
}

func TestAllGatherAndReduceScatter(t *testing.T) {
	tp := topo(2, 4)
	order := ringOrder(tp, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3})
	n := len(order)
	ag := RingAllGather(tp, order, 8*unit.MB)
	if len(ag) != n-1 {
		t.Errorf("all-gather phases = %d, want %d", len(ag), n-1)
	}
	rs := RingReduceScatter(tp, order, 64*unit.MB)
	if len(rs) != n-1 {
		t.Errorf("reduce-scatter phases = %d, want %d", len(rs), n-1)
	}
	// all-gather of shard s has per-step volume N·s; reduce-scatter
	// of b has per-step volume N·b/N = b.
	var agStep, rsStep float64
	for _, f := range ag[0].Flows {
		agStep += f.Bytes
	}
	for _, f := range rs[0].Flows {
		rsStep += f.Bytes
	}
	if agStep != float64(n)*8*unit.MB {
		t.Errorf("all-gather step volume = %v", agStep)
	}
	if rsStep != 64*unit.MB {
		t.Errorf("reduce-scatter step volume = %v", rsStep)
	}
}

func TestDegenerateCollectives(t *testing.T) {
	tp := topo(2, 4)
	single := []mesh.DieID{0}
	if RingAllReduce(tp, single, unit.MB) != nil {
		t.Error("single-member all-reduce should be free")
	}
	if RingAllGather(tp, single, unit.MB) != nil {
		t.Error("single-member all-gather should be free")
	}
	if RingAllReduce(tp, []mesh.DieID{0, 1}, 0) != nil {
		t.Error("zero-byte all-reduce should be free")
	}
	if P2P(tp, 3, 3, unit.MB, "self") != nil {
		t.Error("self P2P should be free")
	}
}

// TestBroadcastUsesTree: a one-to-many transfer lowered as a single
// multicast-tree phase charges every link one payload.
func TestBroadcastUsesTree(t *testing.T) {
	tp := topo(2, 4)
	phases := []mesh.Phase{{Flows: mesh.MulticastTree(tp, 0, []mesh.DieID{1, 2, 3, 5}, 16*unit.MB, "w")}}
	if err := tp.ValidatePhase(phases[0]); err != nil {
		t.Fatal(err)
	}
	var maxLoad float64
	for _, v := range phases[0].Loads() {
		if v > maxLoad {
			maxLoad = v
		}
	}
	if maxLoad != 16*unit.MB {
		t.Errorf("broadcast tree max link load = %v, want one payload", maxLoad)
	}
}

// TestP2PRouteIsMinimal: a point-to-point transfer is one flow on a
// shortest route.
func TestP2PRouteIsMinimal(t *testing.T) {
	tp := topo(2, 4)
	p := P2P(tp, 0, 7, 4*unit.MB, "x")
	if len(p) != 1 || len(p[0].Flows) != 1 {
		t.Fatalf("P2P = %+v", p)
	}
	if p[0].Flows[0].Route.Hops() != tp.HopDistance(0, 7) {
		t.Error("P2P route not minimal")
	}
}

func TestTimeAndEnergyPositive(t *testing.T) {
	tp := topo(2, 4)
	order := ringOrder(tp, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3})
	pt := tp.SeqTime(RingAllReduce(tp, order, 64*unit.MB))
	if pt.Total() <= 0 {
		t.Error("collective time should be positive")
	}
	// D2D energy is charged from the link bytes.
	if pt.LinkBytes <= 0 {
		t.Error("collective link bytes should be positive")
	}
}

// TestAllReduceTimeScalesInverseWithRing: on a physical ring the
// all-reduce time is ~2(N-1)/N × bytes / link-bw — nearly flat in N,
// which is why collectives do not shrink with more dies (the Fig. 9
// O(1) communication term).
func TestAllReduceTimeScalesInverseWithRing(t *testing.T) {
	bytes := 256 * unit.MB
	tp4 := topo(2, 2)
	tp16 := topo(2, 8)
	t4 := tp4.SeqTime(RingAllReduce(tp4, ringOrder(tp4, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 1}), bytes)).Total()
	t16 := tp16.SeqTime(RingAllReduce(tp16, ringOrder(tp16, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 7}), bytes)).Total()
	ratio := t16 / t4
	if ratio < 1.0 || ratio > 3.0 {
		t.Errorf("all-reduce time ratio 16v4 = %.2f, want ~flat (1..3; granularity makes finer chunks pricier)", ratio)
	}
}

// TestMergeAlignsPhases merges a ring all-gather with a one-phase
// chain of transfers: step k of every sequence lands in merged phase
// k, every payload carries its sequence's prefix, and a merged step
// repeats the previous one exactly when every sequence's steps do.
func TestMergeAlignsPhases(t *testing.T) {
	tp := topo(2, 4)
	a := RingAllGather(tp, []mesh.DieID{0, 1, 2, 3}, unit.MB)
	var chain mesh.Phase
	for i := mesh.DieID(4); i < 7; i++ {
		chain.Flows = append(chain.Flows, mesh.Flow{Src: i, Dst: i + 1, Bytes: unit.MB, Route: tp.Route(i, i+1), Payload: "p"})
	}
	b := []mesh.Phase{chain}
	merged := Merge(a, b)
	if len(merged) != len(a) {
		t.Fatalf("merged length = %d, want %d", len(merged), len(a))
	}
	if len(merged[0].Flows) != len(a[0].Flows)+len(b[0].Flows) {
		t.Errorf("merged phase 0 flows = %d", len(merged[0].Flows))
	}
	for _, f := range merged[0].Flows {
		if !strings.HasPrefix(f.Payload, "s0.") && !strings.HasPrefix(f.Payload, "s1.") {
			t.Errorf("merged payload %q missing sequence prefix", f.Payload)
		}
	}
	// The chain ends after step 0, so step 1 carries the ring's flows
	// alone; from step 2 on every sequence repeats its previous step.
	if len(merged[1].Flows) != len(a[1].Flows) {
		t.Errorf("merged phase 1 flows = %d, want the ring's %d", len(merged[1].Flows), len(a[1].Flows))
	}
	if !merged[2].Equal(merged[1]) {
		t.Errorf("merged phase 2 %+v differs from phase 1 %+v", merged[2], merged[1])
	}
	// Two rings repeat from step 1: each repeated step equals what
	// merging that step alone produces.
	c := RingAllGather(tp, []mesh.DieID{4, 5, 6, 7}, unit.MB)
	merged = Merge(a, c)
	for k := range merged {
		if want := Merge(a[k:k+1], c[k:k+1])[0]; !merged[k].Equal(want) {
			t.Errorf("merged phase %d %+v, want %+v", k, merged[k], want)
		}
	}
}
