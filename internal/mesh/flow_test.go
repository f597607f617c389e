package mesh

import (
	"math"
	"testing"

	"temp/internal/hw"
	"temp/internal/unit"
)

func flowBetween(tp *Topology, src, dst DieID, bytes float64, payload string) Flow {
	return Flow{Src: src, Dst: dst, Bytes: bytes, Route: tp.RouteXY(src, dst), Payload: payload}
}

// maxLinkLoad is the heaviest per-link byte load of p.
func maxLinkLoad(p Phase) float64 {
	var max float64
	for _, v := range p.Loads() {
		if v > max {
			max = v
		}
	}
	return max
}

func TestPhaseTimeSingleHop(t *testing.T) {
	tp := grid(2, 4)
	bytes := 64 * unit.MB
	p := Phase{Flows: []Flow{flowBetween(tp, 0, 1, bytes, "w0")}}
	pt := tp.Time(p)
	link := hw.TableID2D()
	wantSer := bytes / link.EffectiveBandwidth(bytes)
	if math.Abs(pt.Serialization-wantSer)/wantSer > 1e-9 {
		t.Errorf("Serialization = %v, want %v", pt.Serialization, wantSer)
	}
	if pt.HopLatency != link.Latency {
		t.Errorf("HopLatency = %v, want one hop", pt.HopLatency)
	}
	if pt.MaxHops != 1 {
		t.Errorf("MaxHops = %d", pt.MaxHops)
	}
}

// TestContentionDoublesLatency reproduces the Fig. 5(b) effect:
// two flows forced through a shared link take >2× the time of the
// contention-free case.
func TestContentionDoublesLatency(t *testing.T) {
	tp := grid(2, 4)
	bytes := 64 * unit.MB
	// Dies 0→2 and 1→3 in the top row share link 1→2 under XY routing.
	d0, d1 := tp.ID(Coord{0, 0}), tp.ID(Coord{0, 1})
	d2, d3 := tp.ID(Coord{0, 2}), tp.ID(Coord{0, 3})
	solo := tp.Time(Phase{Flows: []Flow{flowBetween(tp, d0, d2, bytes, "a")}})
	both := tp.Time(Phase{Flows: []Flow{
		flowBetween(tp, d0, d2, bytes, "a"),
		flowBetween(tp, d1, d3, bytes, "b"),
	}})
	if both.Serialization < 2*solo.Serialization*0.99 {
		t.Errorf("contention serialization %v < 2× solo %v", both.Serialization, solo.Serialization)
	}
	if both.Bottleneck != (Link{d1, d2}) {
		t.Errorf("bottleneck = %v, want %v", both.Bottleneck, Link{d1, d2})
	}
}

func TestPhaseLoads(t *testing.T) {
	tp := grid(1, 4)
	p := Phase{Flows: []Flow{
		flowBetween(tp, 0, 3, 100, "x"),
		flowBetween(tp, 1, 2, 50, "y"),
	}}
	loads := p.Loads()
	if loads[Link{1, 2}] != 150 {
		t.Errorf("shared link load = %v, want 150", loads[Link{1, 2}])
	}
	if loads[Link{0, 1}] != 100 {
		t.Errorf("first link load = %v, want 100", loads[Link{0, 1}])
	}
	if pt := tp.Time(p); pt.Bottleneck != (Link{1, 2}) || pt.BottleneckBytes != 150 {
		t.Errorf("bottleneck = %v/%v, want the shared link at 150", pt.Bottleneck, pt.BottleneckBytes)
	}
}

func TestSeqTimeAccumulates(t *testing.T) {
	tp := grid(1, 4)
	p1 := Phase{Flows: []Flow{flowBetween(tp, 0, 1, 10*unit.MB, "a")}}
	p2 := Phase{Flows: []Flow{flowBetween(tp, 1, 2, 10*unit.MB, "b")}}
	seq := tp.SeqTime([]Phase{p1, p2})
	t1, t2 := tp.Time(p1), tp.Time(p2)
	if got, want := seq.Total(), t1.Total()+t2.Total(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SeqTime total = %v, want %v", got, want)
	}
}

func TestUtilizationBalanced(t *testing.T) {
	tp := grid(1, 3)
	// Two equal single-hop flows on disjoint links: perfectly balanced.
	p := Phase{Flows: []Flow{
		flowBetween(tp, 0, 1, 100, "a"),
		flowBetween(tp, 1, 2, 100, "b"),
	}}
	u := tp.Utilization(p)
	if u.Balance != 1.0 {
		t.Errorf("Balance = %v, want 1.0", u.Balance)
	}
	// Skewed loads reduce balance.
	p2 := Phase{Flows: []Flow{
		flowBetween(tp, 0, 1, 300, "a"),
		flowBetween(tp, 1, 2, 100, "b"),
	}}
	u2 := tp.Utilization(p2)
	if u2.Balance >= 1.0 {
		t.Errorf("skewed Balance = %v, want <1", u2.Balance)
	}
}

func TestValidatePhase(t *testing.T) {
	tp := grid(2, 2)
	good := Phase{Flows: []Flow{flowBetween(tp, 0, 3, 10, "ok")}}
	if err := tp.ValidatePhase(good); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
	bad := Phase{Flows: []Flow{{Src: 0, Dst: 3, Bytes: 10, Route: Path{0, 3}, Payload: "diag"}}}
	if err := tp.ValidatePhase(bad); err == nil {
		t.Fatal("diagonal route accepted")
	}
	empty := Phase{Flows: []Flow{{Src: 0, Dst: 1, Bytes: 10, Payload: "noroute"}}}
	if err := tp.ValidatePhase(empty); err == nil {
		t.Fatal("empty route accepted")
	}
	wrongEnds := Phase{Flows: []Flow{{Src: 0, Dst: 1, Bytes: 10, Route: Path{0, 2}, Payload: "ends"}}}
	if err := tp.ValidatePhase(wrongEnds); err == nil {
		t.Fatal("mismatched endpoints accepted")
	}
}

func TestEnergyScalesWithHops(t *testing.T) {
	tp := grid(1, 8)
	oneHop := Phase{Flows: []Flow{flowBetween(tp, 0, 1, 1*unit.MB, "x")}}
	sevenHops := Phase{Flows: []Flow{flowBetween(tp, 0, 7, 1*unit.MB, "x")}}
	e1, e7 := tp.EnergyJoules(oneHop), tp.EnergyJoules(sevenHops)
	if math.Abs(e7/e1-7) > 1e-9 {
		t.Errorf("energy ratio = %v, want 7 (per-hop charging)", e7/e1)
	}
	want := 1 * unit.MB * 8 * hw.TableID2D().EnergyPerBit
	if math.Abs(e1-want)/want > 1e-9 {
		t.Errorf("one-hop energy = %v, want %v", e1, want)
	}
}

func TestMulticastTreeDedupesBytes(t *testing.T) {
	tp := grid(2, 4)
	bytes := 32 * unit.MB
	dsts := []DieID{1, 2, 3}
	// Unicast: three flows 0→1, 0→2, 0→3 share link 0→1 (load 3B).
	uni := Phase{Flows: []Flow{
		flowBetween(tp, 0, 1, bytes, "w"),
		flowBetween(tp, 0, 2, bytes, "w"),
		flowBetween(tp, 0, 3, bytes, "w"),
	}}
	multi := Phase{Flows: MulticastTree(tp, 0, dsts, bytes, "w")}
	if err := tp.ValidatePhase(multi); err != nil {
		t.Fatal(err)
	}
	uniMax, multiMax := maxLinkLoad(uni), maxLinkLoad(multi)
	if multiMax >= uniMax {
		t.Errorf("multicast max load %v not below unicast %v", multiMax, uniMax)
	}
	if multiMax != bytes {
		t.Errorf("multicast link load = %v, want one payload %v", multiMax, bytes)
	}
	// Tree must reach all destinations.
	reached := map[DieID]bool{0: true}
	for _, f := range multi.Flows {
		reached[f.Dst] = true
	}
	for _, d := range dsts {
		if !reached[d] {
			t.Errorf("destination %d not covered by tree", d)
		}
	}
}

func TestMulticastTreeEmpty(t *testing.T) {
	tp := grid(2, 2)
	if flows := MulticastTree(tp, 0, nil, 100, "w"); flows != nil {
		t.Errorf("empty destination set should yield no flows, got %v", flows)
	}
}

// TestTailLatencySevenHops reproduces Fig. 5(a): a logical-neighbor
// transfer that physically crosses 7 hops pays ~7× the latency of a
// true 1-hop transfer.
func TestTailLatencySevenHops(t *testing.T) {
	tp := grid(1, 8)
	bytes := 1 * unit.KB // latency-dominated regime
	near := tp.Time(Phase{Flows: []Flow{flowBetween(tp, 0, 1, bytes, "n")}})
	far := tp.Time(Phase{Flows: []Flow{flowBetween(tp, 0, 7, bytes, "f")}})
	if got := far.HopLatency / near.HopLatency; math.Abs(got-7) > 1e-9 {
		t.Errorf("hop latency ratio = %v, want 7", got)
	}
}
