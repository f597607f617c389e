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

// MaterializeSeq concatenates the materialized phases of a scaled
// template sequence, in order: the reference SeqTimeLowered is pinned
// against.
func MaterializeSeq(seq []LoweredSeq) []Phase {
	var out []Phase
	for _, ls := range seq {
		if ls.Tmpl == nil {
			continue
		}
		out = append(out, ls.Tmpl.Materialize(ls.Bytes)...)
	}
	return out
}

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

	// A compiled profile of other uniform phases (here the template's
	// flows detoured YX, as a TCME reroute would, then its first phase
	// as lowered) replaces the template's own profile. Its first two
	// phases are equal without sharing flows, so they store their link
	// entries once; the third has as many flows on other routes and
	// takes its own.
	alt := tmpl.Materialize(1)
	for i := range alt {
		for j := range alt[i].Flows {
			f := &alt[i].Flows[j]
			f.Route = tp.RouteYX(f.Src, f.Dst)
		}
	}
	alt = append(alt, tmpl.Materialize(1)[0])
	prof := tp.CompileProfile(alt)
	if prof.lo[1] != prof.lo[0] || prof.hi[1] != prof.hi[0] || prof.lo[2] != prof.hi[0] || int(prof.hi[2]) != len(prof.ids) {
		t.Errorf("phase spans %v..%v of %d entries; want phases 0 and 1 in one span, phase 2 in its own",
			prof.lo, prof.hi, len(prof.ids))
	}
	for i := range seq {
		seq[i].Prof = prof
	}
	var scaled []Phase
	for _, ls := range seq {
		for _, ph := range alt {
			flows := append([]Flow(nil), ph.Flows...)
			for j := range flows {
				flows[j].Bytes = ls.Bytes
			}
			scaled = append(scaled, Phase{Flows: flows})
		}
	}
	if got, want := tp.SeqTimeLowered(seq), tp.SeqTime(scaled); got != want {
		t.Errorf("SeqTimeLowered over a compiled profile = %+v, materialized SeqTime = %+v", got, want)
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
// panics, clones are mutable, a faulted clone interns to itself,
// frozen, and the interner retains no faulted topology. A second link
// spec on the same grid interns to its own frozen instance that shares
// the grid's derived caches and template profiles but times with its
// own link, while a faulted clone of either owns its cache.
func TestInternSemantics(t *testing.T) {
	a := Shared(4, 8, hw.TableID2D())
	b := Shared(4, 8, hw.TableID2D())
	if a != b {
		t.Fatal("Shared returned distinct instances for one key")
	}
	if !a.frozen {
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
	if c.frozen {
		t.Fatal("clone is frozen")
	}
	c.SetLinkAlive(Link{0, 1}, false)
	c.SetDieAlive(3, false)
	if !a.LinkAlive(Link{0, 1}) || !a.DieAlive(3) {
		t.Fatal("clone mutation leaked into the interned original")
	}
	if f := c.Intern(); f != c || !c.frozen {
		t.Fatal("faulted intern must return its receiver, frozen")
	}
	// A healthy clone interns back to the shared healthy instance.
	if a.Clone().Intern() != a {
		t.Error("healthy clone did not intern to the shared instance")
	}
	// Faulted topologies are never tabled.
	entries := func() int {
		interner.mu.Lock()
		defer interner.mu.Unlock()
		return len(interner.healthy)
	}
	before := entries()
	for i := 0; i < 300; i++ {
		f := a.Clone()
		if i%2 == 0 {
			f.SetDieAlive(DieID(i%a.Dies()), false)
		} else {
			f.SetLinkAlive(a.LinkByID(i%a.NumLinks()), false)
		}
		if f.Intern() != f {
			t.Fatalf("faulted clone %d interned to another instance", i)
		}
	}
	if got := entries(); got != before {
		t.Errorf("interning 300 faulted clones changed the interner from %d to %d entries", before, got)
	}

	l2 := hw.TableID2D()
	l2.Bandwidth /= 2
	l2.Latency *= 2
	v := Shared(4, 8, l2)
	if v == a || !v.frozen || Shared(4, 8, l2) != v {
		t.Fatal("a second link spec did not intern to its own frozen instance")
	}
	type probe struct{}
	built := new(int)
	if got := v.Derived(probe{}, func() any { return built }); got != built {
		t.Fatal("Derived did not return its first build")
	}
	if got := a.Derived(probe{}, func() any { return new(int) }); got != built {
		t.Error("a derived value built through one link spec was not returned through the other")
	}
	for _, base := range []*Topology{a, v} {
		f := base.Clone()
		f.SetDieAlive(5, false)
		if f.Intern() != f {
			t.Fatal("faulted clone interned to another instance")
		}
		if got := f.Derived(probe{}, func() any { return new(int) }); got == built {
			t.Error("a faulted clone read its base's derived cache")
		}
	}
	tmpl := NewPhaseTemplate([]Phase{benchPhase(a), benchPhase(a)})
	seq := []LoweredSeq{{Tmpl: tmpl, Bytes: 1 << 20}}
	for _, tp := range []*Topology{a, v} {
		if got, want := tp.SeqTimeLowered(seq), New(4, 8, tp.link).SeqTime(MaterializeSeq(seq)); got != want {
			t.Errorf("link %v: SeqTimeLowered = %+v, unshared SeqTime = %+v", tp.link.Bandwidth, got, want)
		}
	}
	if p := tmpl.prof.Load(); p == nil || p.topo != a {
		t.Error("a template timed under two link specs of one grid cached no profile of their owner")
	}
}

// TestTemplateCachesOneProfile times one template on three topologies:
// its owner, a link variant of it, and a frozen faulted clone, which
// is another routing owner. Each time equals SeqTime of the
// materialized phases; the variant reuses the owner's cached profile,
// and the clone neither replaces it nor is served it. A template whose
// first timing is on the clone caches the clone's profile, and the
// owner's timing still compiles its own.
func TestTemplateCachesOneProfile(t *testing.T) {
	owner := Shared(4, 8, hw.TableID2D())
	l2 := hw.TableID2D()
	l2.Bandwidth /= 3
	variant := Shared(4, 8, l2)
	c := owner.Clone()
	c.SetLinkAlive(Link{From: 9, To: 1}, false)
	faulted := c.Intern()
	if variant.owner != owner || faulted.owner == owner {
		t.Fatal("the variant must share the grid's owner and the faulted clone own itself")
	}
	phases := []Phase{benchPhase(owner), benchPhase(owner)}
	check := func(tmpl *PhaseTemplate, tp *Topology, name string) {
		t.Helper()
		seq := []LoweredSeq{{Tmpl: tmpl, Bytes: 1e7 / 3}}
		if got, want := tp.SeqTimeLowered(seq), tp.SeqTime(MaterializeSeq(seq)); got != want {
			t.Errorf("%s: SeqTimeLowered = %+v, materialized SeqTime = %+v", name, got, want)
		}
	}

	tmpl := NewPhaseTemplate(phases)
	check(tmpl, owner, "owner")
	cached := tmpl.prof.Load()
	if cached == nil || cached.topo != owner {
		t.Fatal("the owner's timing cached no profile of its own")
	}
	for _, tc := range []struct {
		tp   *Topology
		name string
	}{{variant, "link variant"}, {faulted, "faulted clone"}, {faulted, "faulted clone again"}, {owner, "owner again"}} {
		check(tmpl, tc.tp, tc.name)
		if tmpl.prof.Load() != cached {
			t.Fatalf("timing on the %s replaced the cached profile", tc.name)
		}
	}

	first := NewPhaseTemplate(phases)
	check(first, faulted, "faulted clone first")
	if p := first.prof.Load(); p == nil || p.topo != faulted {
		t.Fatal("a first timing on the faulted clone cached no profile of it")
	}
	check(first, owner, "owner after the faulted clone")
	check(first, variant, "link variant after the faulted clone")
	if first.prof.Load().topo != faulted {
		t.Error("timing on the owner replaced the faulted clone's cached profile")
	}
	for _, tp := range []*Topology{owner, variant} {
		if p := tp.profileFor(first); p.topo != owner {
			t.Error("the owner's timing was served the faulted clone's profile")
		}
	}
}
