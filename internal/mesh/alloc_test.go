package mesh

import (
	"sort"
	"testing"

	"temp/internal/hw"
)

// timeGeneric is the reference kernel the dense Time kernel is pinned
// against: per-link accumulators live in maps and the bottleneck scan
// visits links in sorted (From, To) order. It walks routes itself
// rather than through forEachLink, so a change to the shared walk
// cannot move both sides at once.
func timeGeneric(t *Topology, p Phase) PhaseTime {
	var out PhaseTime
	loads := make(map[Link]float64)
	msgBytes := make(map[Link]float64)
	msgCount := make(map[Link]int)
	for _, f := range p.Flows {
		out.TotalBytes += f.Bytes
		if h := f.Route.Hops(); h > out.MaxHops {
			out.MaxHops = h
		}
	}
	for _, f := range p.Flows {
		for j := 0; j+1 < len(f.Route); j++ {
			l := Link{f.Route[j], f.Route[j+1]}
			loads[l] += f.Bytes
			msgBytes[l] += f.Bytes
			msgCount[l]++
			out.LinkBytes += f.Bytes
		}
	}
	keys := make([]Link, 0, len(loads))
	for l := range loads {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	for _, l := range keys {
		mean := msgBytes[l] / float64(msgCount[l])
		bw := t.link.EffectiveBandwidth(mean)
		if ser := loads[l] / bw; ser > out.Serialization {
			out.Serialization = ser
			out.Bottleneck = l
			out.BottleneckBytes = loads[l]
		}
	}
	out.HopLatency = float64(out.MaxHops) * t.link.Latency
	return out
}

// TimeGeneric exposes the reference kernel to the external tests that
// lower real collectives onto faulted meshes.
var TimeGeneric = timeGeneric

// TestTimeZeroAllocs pins the dense kernel's allocation contract:
// steady-state Time and SeqTime must not allocate (scratch comes from
// the pool, the bottleneck scan walks the link index).
func TestTimeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tp := New(4, 8, hw.TableID2D())
	p := benchPhase(tp)
	phases := []Phase{p, p, p}
	tp.Time(p) // warm the scratch pool
	if avg := testing.AllocsPerRun(100, func() { tp.Time(p) }); avg != 0 {
		t.Errorf("Time allocates %.1f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { tp.SeqTime(phases) }); avg != 0 {
		t.Errorf("SeqTime allocates %.1f objects/op, want 0", avg)
	}
}

// TestSeqTimeLoweredZeroAllocs pins the template evaluation path: a
// compiled phase sequence is timed without materialization.
func TestSeqTimeLoweredZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tp := Shared(4, 8, hw.TableID2D())
	tmpl := NewPhaseTemplate([]Phase{benchPhase(tp), benchPhase(tp)})
	seq := []LoweredSeq{{Tmpl: tmpl, Bytes: 1 << 20}, {Tmpl: tmpl, Bytes: 512}}
	tp.SeqTimeLowered(seq)
	if avg := testing.AllocsPerRun(100, func() { tp.SeqTimeLowered(seq) }); avg != 0 {
		t.Errorf("SeqTimeLowered allocates %.1f objects/op, want 0", avg)
	}
}

// TestSeqTimeLoweredMatchesMaterialized cross-checks the two template
// consumers: timing the templates in place must equal timing the
// materialized concatenation bit for bit.
func TestSeqTimeLoweredMatchesMaterialized(t *testing.T) {
	tp := Shared(4, 8, hw.TableID2D())
	tmpl := NewPhaseTemplate([]Phase{benchPhase(tp), benchPhase(tp)})
	seq := []LoweredSeq{{Tmpl: tmpl, Bytes: 3.7e6}, {Tmpl: tmpl, Bytes: 1234.5}}
	got := tp.SeqTimeLowered(seq)
	want := tp.SeqTime(MaterializeSeq(seq))
	if got != want {
		t.Errorf("SeqTimeLowered = %+v, materialized SeqTime = %+v", got, want)
	}
}

// TestTimeMatchesGenericKernel pins the dense kernel against the
// map-based reference kernel bit for bit, including the bottleneck
// tie-break (sorted link order) and summation order.
func TestTimeMatchesGenericKernel(t *testing.T) {
	tp := New(4, 8, hw.TableID2D())
	p := benchPhase(tp)
	// Add flows with shared links so several links tie on load.
	p.Flows = append(p.Flows, p.Flows...)
	got := tp.Time(p)
	want := timeGeneric(tp, p)
	if got != want {
		t.Errorf("dense Time = %+v, generic = %+v", got, want)
	}
}

// TestTimeOffMeshPanics pins the adjacency contract: a route step
// between non-adjacent dies — a diagonal, or a row wrap between
// consecutive IDs — has no link ID, so both the walking kernel and the
// template profile panic instead of timing a link the mesh lacks.
func TestTimeOffMeshPanics(t *testing.T) {
	tp := Shared(4, 8, hw.TableID2D())
	for _, route := range []Path{{0, 9}, {7, 8}} {
		p := Phase{Flows: []Flow{{Src: route[0], Dst: route[1], Bytes: 100, Route: route}}}
		seq := []LoweredSeq{{Tmpl: NewPhaseTemplate([]Phase{p}), Bytes: 100}}
		mustPanic(t, "Time", func() { tp.Time(p) })
		mustPanic(t, "SeqTimeLowered", func() { tp.SeqTimeLowered(seq) })
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s accepted an off-mesh route step", name)
		}
	}()
	fn()
}

// TestLinkIndexRoundTrip pins the canonical dense index: IDs ascend
// in sorted (From, To) order and LinkID inverts LinkByID.
func TestLinkIndexRoundTrip(t *testing.T) {
	for _, grid := range [][2]int{{4, 8}, {1, 5}, {5, 1}, {2, 2}} {
		tp := New(grid[0], grid[1], hw.TableID2D())
		prev := Link{-1, -1}
		for id := 0; id < tp.NumLinks(); id++ {
			l := tp.LinkByID(id)
			if tp.LinkID(l) != id {
				t.Fatalf("%v: LinkID(%v) = %d, want %d", grid, l, tp.LinkID(l), id)
			}
			if l.From < prev.From || (l.From == prev.From && l.To <= prev.To) {
				t.Fatalf("%v: link IDs not in sorted order: %v after %v", grid, l, prev)
			}
			if !tp.Adjacent(l.From, l.To) {
				t.Fatalf("%v: indexed link %v not adjacent", grid, l)
			}
			prev = l
		}
		if tp.LinkID(Link{0, DieID(tp.Dies())}) >= 0 {
			t.Fatalf("%v: out-of-grid link got an ID", grid)
		}
		if grid[1] > 2 && tp.LinkID(Link{0, 2}) >= 0 {
			t.Fatalf("%v: non-adjacent pair got an ID", grid)
		}
	}
}

// TestInternSemantics pins the interner contract: FromWafer-style
// lookups share one frozen instance, mutation of a frozen topology
// panics, clones are mutable, and re-interning a faulted clone keys
// on the exact fault mask.
func TestInternSemantics(t *testing.T) {
	a := Shared(4, 8, hw.TableID2D())
	b := Shared(4, 8, hw.TableID2D())
	if a != b {
		t.Fatal("Shared returned distinct instances for one key")
	}
	if !a.Frozen() {
		t.Fatal("interned topology not frozen")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mutating an interned topology did not panic")
			}
		}()
		a.SetDieAlive(0, false)
	}()

	c := a.Clone()
	if c.Frozen() {
		t.Fatal("clone is frozen")
	}
	c.SetLinkAlive(Link{0, 1}, false)
	c.SetCoreFraction(3, 0.5)
	if a.LinkAlive(Link{0, 1}) != true || a.CoreFraction(3) != 1 {
		t.Fatal("clone mutation leaked into the interned original")
	}
	f1 := c.Intern()
	if !f1.Frozen() || f1 == a {
		t.Fatal("faulted intern must freeze a distinct instance")
	}
	// Same mask → same instance.
	d := a.Clone()
	d.SetLinkAlive(Link{0, 1}, false)
	d.SetCoreFraction(3, 0.5)
	if d.Intern() != f1 {
		t.Error("identical fault masks interned to distinct instances")
	}
	// Different mask → different instance.
	e := a.Clone()
	e.SetLinkAlive(Link{0, 1}, false)
	if e.Intern() == f1 {
		t.Error("distinct fault masks shared one instance")
	}
	// A healthy clone interns back to the shared healthy instance.
	if a.Clone().Intern() != a {
		t.Error("healthy clone did not intern to the shared instance")
	}
}
