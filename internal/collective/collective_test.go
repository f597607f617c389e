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
			t.Fatalf("phase %s has %d flows, want %d", ph.Label, len(ph.Flows), len(order))
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

func TestBroadcastUsesTree(t *testing.T) {
	tp := topo(2, 4)
	phases := Broadcast(tp, 0, []mesh.DieID{1, 2, 3, 5}, 16*unit.MB, "w")
	if len(phases) != 1 {
		t.Fatalf("broadcast phases = %d", len(phases))
	}
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

func TestP2PAndChain(t *testing.T) {
	tp := topo(2, 4)
	p := P2P(tp, 0, 7, 4*unit.MB, "x")
	if len(p) != 1 || len(p[0].Flows) != 1 {
		t.Fatalf("P2P = %+v", p)
	}
	if p[0].Flows[0].Route.Hops() != tp.HopDistance(0, 7) {
		t.Error("P2P route not minimal")
	}
	chain := P2PChain(tp, []mesh.DieID{0, 1, 2, 3}, 4*unit.MB, "c")
	if len(chain) != 1 || len(chain[0].Flows) != 3 {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestAllToAllPairCount(t *testing.T) {
	tp := topo(2, 4)
	order := []mesh.DieID{0, 1, 2, 3}
	phases := AllToAll(tp, order, unit.MB)
	if len(phases) != 1 {
		t.Fatalf("alltoall phases = %d", len(phases))
	}
	if got, want := len(phases[0].Flows), 4*3; got != want {
		t.Errorf("alltoall flows = %d, want %d", got, want)
	}
}

func TestTimeAndEnergyPositive(t *testing.T) {
	tp := topo(2, 4)
	order := ringOrder(tp, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3})
	phases := RingAllReduce(tp, order, 64*unit.MB)
	if Time(tp, phases) <= 0 {
		t.Error("collective time should be positive")
	}
	if Energy(tp, phases) <= 0 {
		t.Error("collective energy should be positive")
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
	t4 := Time(tp4, RingAllReduce(tp4, ringOrder(tp4, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 1}), bytes))
	t16 := Time(tp16, RingAllReduce(tp16, ringOrder(tp16, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 7}), bytes))
	ratio := t16 / t4
	if ratio < 1.0 || ratio > 3.0 {
		t.Errorf("all-reduce time ratio 16v4 = %.2f, want ~flat (1..3; granularity makes finer chunks pricier)", ratio)
	}
}

func TestMergeAlignsPhases(t *testing.T) {
	tp := topo(2, 4)
	a := RingAllGather(tp, []mesh.DieID{0, 1, 2, 3}, unit.MB)
	b := P2PChain(tp, []mesh.DieID{4, 5, 6, 7}, unit.MB, "p")
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
}
