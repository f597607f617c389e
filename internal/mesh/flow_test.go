package mesh

import (
	"math"
	"testing"

	"temp/internal/hw"
	"temp/internal/unit"
)

func flowBetween(tp *Topology, src, dst DieID, bytes float64) Flow {
	return Flow{Src: src, Dst: dst, Bytes: bytes, Route: tp.RouteXY(src, dst)}
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
	p := Phase{Flows: []Flow{flowBetween(tp, 0, 1, bytes)}}
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
	solo := tp.Time(Phase{Flows: []Flow{flowBetween(tp, d0, d2, bytes)}})
	both := tp.Time(Phase{Flows: []Flow{
		flowBetween(tp, d0, d2, bytes),
		flowBetween(tp, d1, d3, bytes),
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
		flowBetween(tp, 0, 3, 100),
		flowBetween(tp, 1, 2, 50),
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

// TestPhaseEqual: phases are equal when every flow matches in Src,
// Dst, Bytes, Payload and route hop for hop, whatever backs the slices.
func TestPhaseEqual(t *testing.T) {
	tp := grid(2, 4)
	base := Phase{Flows: []Flow{flowBetween(tp, 0, 5, 1), flowBetween(tp, 2, 3, 1)}}
	same := Phase{Flows: []Flow{flowBetween(tp, 0, 5, 1), flowBetween(tp, 2, 3, 1)}}
	if !base.Equal(same) || !(Phase{}).Equal(Phase{Flows: []Flow{}}) {
		t.Error("equal phases compare unequal")
	}
	for name, edit := range map[string]func(f *Flow){
		"src":   func(f *Flow) { f.Src = 1 },
		"dst":   func(f *Flow) { f.Dst = 4 },
		"bytes": func(f *Flow) { f.Bytes = 2 },
		"seq":   func(f *Flow) { f.Payload.Seq = 1 },
		"datum": func(f *Flow) { f.Payload.Datum = 1 },
		"route": func(f *Flow) { f.Route = tp.RouteYX(0, 5) },
	} {
		other := Phase{Flows: append([]Flow(nil), base.Flows...)}
		edit(&other.Flows[0])
		if base.Equal(other) {
			t.Errorf("phases differing in %s compare equal", name)
		}
	}
	if base.Equal(Phase{Flows: base.Flows[:1]}) {
		t.Error("phases of different flow counts compare equal")
	}
}

func TestSeqTimeAccumulates(t *testing.T) {
	tp := grid(1, 4)
	p1 := Phase{Flows: []Flow{flowBetween(tp, 0, 1, 10*unit.MB)}}
	p2 := Phase{Flows: []Flow{flowBetween(tp, 1, 2, 10*unit.MB)}}
	seq := tp.SeqTime([]Phase{p1, p2})
	t1, t2 := tp.Time(p1), tp.Time(p2)
	if got, want := seq.Total(), t1.Total()+t2.Total(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SeqTime total = %v, want %v", got, want)
	}
}

func TestValidatePhase(t *testing.T) {
	tp := grid(2, 2)
	good := Phase{Flows: []Flow{flowBetween(tp, 0, 3, 10)}}
	if err := tp.ValidatePhase(good); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
	bad := Phase{Flows: []Flow{{Src: 0, Dst: 3, Bytes: 10, Route: Path{0, 3}}}}
	if err := tp.ValidatePhase(bad); err == nil {
		t.Fatal("diagonal route accepted")
	}
	empty := Phase{Flows: []Flow{{Src: 0, Dst: 1, Bytes: 10}}}
	if err := tp.ValidatePhase(empty); err == nil {
		t.Fatal("empty route accepted")
	}
	wrongEnds := Phase{Flows: []Flow{{Src: 0, Dst: 1, Bytes: 10, Route: Path{0, 2}}}}
	if err := tp.ValidatePhase(wrongEnds); err == nil {
		t.Fatal("mismatched endpoints accepted")
	}
}

func TestEnergyScalesWithHops(t *testing.T) {
	tp := grid(1, 8)
	oneHop := Phase{Flows: []Flow{flowBetween(tp, 0, 1, 1*unit.MB)}}
	sevenHops := Phase{Flows: []Flow{flowBetween(tp, 0, 7, 1*unit.MB)}}
	// EnergyComm is charged from LinkBytes: every byte once per
	// traversed link.
	b1, b7 := tp.Time(oneHop).LinkBytes, tp.Time(sevenHops).LinkBytes
	if math.Abs(b7/b1-7) > 1e-9 {
		t.Errorf("link-byte ratio = %v, want 7 (per-hop charging)", b7/b1)
	}
	if want := 1 * unit.MB; b1 != want {
		t.Errorf("one-hop link bytes = %v, want %v", b1, want)
	}
}

func TestMulticastTreeDedupesBytes(t *testing.T) {
	tp := grid(2, 4)
	bytes := 32 * unit.MB
	dsts := []DieID{1, 2, 3}
	// Unicast: three flows 0→1, 0→2, 0→3 share link 0→1 (load 3B).
	uni := Phase{Flows: []Flow{
		flowBetween(tp, 0, 1, bytes),
		flowBetween(tp, 0, 2, bytes),
		flowBetween(tp, 0, 3, bytes),
	}}
	multi := Phase{Flows: MulticastTree(tp, 0, dsts, bytes, Payload{})}
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
	if flows := MulticastTree(tp, 0, nil, 100, Payload{}); flows != nil {
		t.Errorf("empty destination set should yield no flows, got %v", flows)
	}
}

// TestTailLatencySevenHops reproduces Fig. 5(a): a logical-neighbor
// transfer that physically crosses 7 hops pays ~7× the latency of a
// true 1-hop transfer.
func TestTailLatencySevenHops(t *testing.T) {
	tp := grid(1, 8)
	bytes := 1 * unit.KB // latency-dominated regime
	near := tp.Time(Phase{Flows: []Flow{flowBetween(tp, 0, 1, bytes)}})
	far := tp.Time(Phase{Flows: []Flow{flowBetween(tp, 0, 7, bytes)}})
	if got := far.HopLatency / near.HopLatency; math.Abs(got-7) > 1e-9 {
		t.Errorf("hop latency ratio = %v, want 7", got)
	}
}
