package mesh

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"temp/internal/hw"
)

func grid(r, c int) *Topology { return New(r, c, hw.TableID2D()) }

func TestIDCoordRoundTrip(t *testing.T) {
	tp := grid(4, 8)
	for i := 0; i < tp.Dies(); i++ {
		d := DieID(i)
		if got := tp.ID(tp.CoordOf(d)); got != d {
			t.Fatalf("round trip failed for die %d: got %d", d, got)
		}
	}
}

func TestAdjacency(t *testing.T) {
	tp := grid(4, 8)
	tests := []struct {
		a, b DieID
		want bool
	}{
		{0, 1, true},   // horizontal neighbor
		{0, 8, true},   // vertical neighbor
		{0, 9, false},  // diagonal — no diagonal links on an interposer
		{7, 8, false},  // row wrap is not adjacency
		{0, 2, false},  // distance 2
		{31, 30, true}, // last row
	}
	for _, tc := range tests {
		if got := tp.Adjacent(tc.a, tc.b); got != tc.want {
			t.Errorf("Adjacent(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNeighborsCorners(t *testing.T) {
	tp := grid(4, 8)
	if n := tp.Neighbors(0); len(n) != 2 {
		t.Errorf("corner die has %d neighbors, want 2", len(n))
	}
	if n := tp.Neighbors(1); len(n) != 3 {
		t.Errorf("edge die has %d neighbors, want 3", len(n))
	}
	if n := tp.Neighbors(9); len(n) != 4 {
		t.Errorf("interior die has %d neighbors, want 4", len(n))
	}
}

func TestLinkCount(t *testing.T) {
	tp := grid(4, 8)
	// Directed links of an RxC mesh: 2*(R*(C-1) + C*(R-1)).
	want := 2 * (4*7 + 8*3)
	if got := tp.NumLinks(); got != want {
		t.Errorf("NumLinks = %d, want %d", got, want)
	}
	alive := 0
	for id := 0; id < tp.NumLinks(); id++ {
		if tp.LinkAlive(tp.LinkByID(id)) {
			alive++
		}
	}
	if alive != want {
		t.Errorf("alive links = %d, want %d", alive, want)
	}
}

func TestRouteXYAndYX(t *testing.T) {
	tp := grid(4, 8)
	src, dst := tp.ID(Coord{0, 0}), tp.ID(Coord{3, 5})
	xy := tp.RouteXY(src, dst)
	yx := tp.RouteYX(src, dst)
	wantHops := tp.HopDistance(src, dst)
	if xy.Hops() != wantHops || yx.Hops() != wantHops {
		t.Fatalf("route hops = %d/%d, want %d", xy.Hops(), yx.Hops(), wantHops)
	}
	if !xy.Valid(tp) || !yx.Valid(tp) {
		t.Fatal("routes not valid")
	}
	if xy[0] != src || xy[len(xy)-1] != dst {
		t.Fatal("XY endpoints wrong")
	}
	// XY goes along the row first; YX along the column first.
	if tp.CoordOf(xy[1]).R != 0 {
		t.Error("XY route should move along columns first")
	}
	if tp.CoordOf(yx[1]).C != 0 {
		t.Error("YX route should move along rows first")
	}
}

func TestRouteSelfIsSingleton(t *testing.T) {
	tp := grid(4, 8)
	p := tp.RouteXY(5, 5)
	if len(p) != 1 || p.Hops() != 0 {
		t.Errorf("self route = %v", p)
	}
}

// Property: for random die pairs, XY routes are always valid and
// minimal on a healthy mesh.
func TestRouteXYMinimalProperty(t *testing.T) {
	tp := grid(6, 9)
	f := func(a, b uint8) bool {
		src := DieID(int(a) % tp.Dies())
		dst := DieID(int(b) % tp.Dies())
		p := tp.RouteXY(src, dst)
		return p.Valid(tp) && p.Hops() == tp.HopDistance(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRouteWeightedAvoidsLoadedLink(t *testing.T) {
	tp := grid(4, 4)
	src, dst := DieID(0), DieID(3)
	hot := Link{1, 2} // on the XY route 0→1→2→3
	p := tp.RouteWeighted(src, dst, func(l Link) float64 {
		if l == hot {
			return 100
		}
		return 0
	})
	if !p.Valid(tp) {
		t.Fatal("weighted route invalid")
	}
	for _, l := range p.Links() {
		if l == hot {
			t.Fatalf("weighted route %v crosses the penalized link", p)
		}
	}
}

func TestRouteAroundDeadLink(t *testing.T) {
	tp := grid(4, 4)
	tp.SetLinkAlive(Link{1, 2}, false)
	p := tp.Route(0, 3)
	if p == nil || !p.Valid(tp) {
		t.Fatalf("fault-aware route failed: %v", p)
	}
	for _, l := range p.Links() {
		if l == (Link{1, 2}) || l == (Link{2, 1}) {
			t.Fatal("route crosses dead link")
		}
	}
}

func TestRouteUnreachable(t *testing.T) {
	tp := grid(1, 3) // a line: kill the middle link to disconnect
	tp.SetLinkAlive(Link{0, 1}, false)
	if p := tp.Route(0, 2); p != nil {
		t.Fatalf("expected nil route, got %v", p)
	}
}

// TestRouteMemoMatchesDijkstra pins the Route memo of frozen faulted
// topologies. On seeded masks of 4×8 and 6×8 meshes (dead links, a
// dead die, and a mask that cuts the mesh in two), every (src, dst)
// routes exactly as a mutable clone's RouteWeighted, nil where an end
// is dead or unreachable; a repeat call returns the same slice; 8
// goroutines routing a fresh frozen mask concurrently agree; and a
// clone of the frozen topology starts with no memo.
func TestRouteMemoMatchesDijkstra(t *testing.T) {
	masks := func(rows, cols int, seed int64) []*Topology {
		rng := rand.New(rand.NewSource(seed))
		links := Shared(rows, cols, hw.TableID2D()).Clone()
		for id := 0; id < links.NumLinks(); id++ {
			if l := links.LinkByID(id); l.From < l.To && rng.Float64() < 0.15 {
				links.SetLinkAlive(l, false)
			}
		}
		die := links.Clone()
		die.SetDieAlive(DieID(rng.Intn(rows*cols)), false)
		cut := Shared(rows, cols, hw.TableID2D()).Clone()
		for r := 0; r < rows; r++ {
			cut.SetLinkAlive(Link{cut.ID(Coord{r, cols/2 - 1}), cut.ID(Coord{r, cols / 2})}, false)
		}
		return []*Topology{links, die, cut}
	}
	same := func(a, b Path) bool {
		if len(a) != len(b) || (a == nil) != (b == nil) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, g := range []struct {
		rows, cols int
		seed       int64
	}{{4, 8, 1}, {6, 8, 2}} {
		for mi, mutable := range masks(g.rows, g.cols, g.seed) {
			name := fmt.Sprintf("%dx%d mask %d", g.rows, g.cols, mi)
			frozen := mutable.Clone().Intern()
			if frozen.routes == nil {
				t.Fatalf("%s: interned faulted topology has no route memo", name)
			}
			if c := frozen.Clone(); c.routes != nil {
				t.Errorf("%s: clone of a frozen topology carries a route memo", name)
			}
			nils := 0
			for src := DieID(0); int(src) < frozen.Dies(); src++ {
				for dst := DieID(0); int(dst) < frozen.Dies(); dst++ {
					want := mutable.RouteWeighted(src, dst, nil)
					got := frozen.Route(src, dst)
					if !same(got, want) {
						t.Fatalf("%s: Route(%d, %d) = %v, RouteWeighted = %v", name, src, dst, got, want)
					}
					if got == nil {
						nils++
						continue
					}
					if again := frozen.Route(src, dst); &again[0] != &got[0] {
						t.Fatalf("%s: repeat Route(%d, %d) returned a new slice", name, src, dst)
					}
				}
			}
			if mi > 0 && nils == 0 {
				t.Errorf("%s: no pair was unroutable", name)
			}

			shared := mutable.Clone().Intern()
			const workers = 8
			got := make([][]Path, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					n := shared.Dies()
					got[w] = make([]Path, n*n)
					// Each worker starts at another pair, so first
					// requests collide across the table.
					for k := 0; k < n*n; k++ {
						i := (k + w*n*n/workers) % (n * n)
						got[w][i] = shared.Route(DieID(i/n), DieID(i%n))
					}
				}(w)
			}
			wg.Wait()
			n := shared.Dies()
			for i := 0; i < n*n; i++ {
				want := shared.Route(DieID(i/n), DieID(i%n))
				for w := 0; w < workers; w++ {
					if !same(got[w][i], want) || (want != nil && &got[w][i][0] != &want[0]) {
						t.Fatalf("%s: worker %d routed (%d, %d) as %v, memo holds %v", name, w, i/n, i%n, got[w][i], want)
					}
				}
			}
		}
	}
}

func TestDieFaultMasks(t *testing.T) {
	tp := grid(4, 4)
	tp.SetDieAlive(5, false)
	if tp.DieAlive(5) {
		t.Fatal("die 5 should be dead")
	}
	alive := 0
	for d := 0; d < tp.Dies(); d++ {
		if tp.DieAlive(DieID(d)) {
			alive++
		}
	}
	if alive != 15 {
		t.Errorf("alive dies = %d, want 15", alive)
	}
	for _, n := range tp.Neighbors(1) {
		if n == 5 {
			t.Fatal("dead die listed as neighbor")
		}
	}
	if p := tp.Route(4, 6); p != nil {
		for _, d := range p {
			if d == 5 {
				t.Fatal("route passes through dead die")
			}
		}
	}
}

func TestConnected(t *testing.T) {
	tp := grid(2, 2)
	if !tp.Connected() {
		t.Fatal("healthy mesh should be connected")
	}
	// Cut die 0 off completely.
	tp.SetLinkAlive(Link{0, 1}, false)
	tp.SetLinkAlive(Link{0, 2}, false)
	if tp.Connected() {
		t.Fatal("mesh should be disconnected")
	}
	// Killing the isolated die restores connectivity of the rest.
	tp.SetDieAlive(0, false)
	if !tp.Connected() {
		t.Fatal("remaining dies should be connected")
	}
}

func TestRectRing(t *testing.T) {
	tp := grid(6, 9)
	tests := []struct {
		r    Rect
		ring bool
	}{
		{Rect{0, 0, 1, 3}, true},  // 2×4
		{Rect{0, 0, 0, 3}, false}, // 1×4 line: no cycle
		{Rect{0, 0, 2, 2}, false}, // 3×3 odd area: no cycle
		{Rect{0, 0, 2, 3}, true},  // 3×4
		{Rect{0, 0, 3, 3}, true},  // 4×4
	}
	for _, tc := range tests {
		if got := tc.r.HasRing(); got != tc.ring {
			t.Errorf("HasRing(%+v) = %v, want %v", tc.r, got, tc.ring)
		}
		if !tc.ring {
			continue
		}
		p, ok := tc.r.RingPath(tp)
		if !ok {
			t.Fatalf("RingPath(%+v) failed", tc.r)
		}
		if len(p) != tc.r.Area() {
			t.Fatalf("ring visits %d dies, want %d", len(p), tc.r.Area())
		}
		seen := map[DieID]bool{}
		for i, d := range p {
			if seen[d] {
				t.Fatalf("ring revisits die %d", d)
			}
			seen[d] = true
			next := p[(i+1)%len(p)]
			if !tp.Adjacent(d, next) {
				t.Fatalf("ring step %d→%d not adjacent (rect %+v, path %v)", d, next, tc.r, p)
			}
		}
	}
}

func TestRectSnakePath(t *testing.T) {
	tp := grid(6, 9)
	rects := []Rect{{0, 0, 0, 5}, {1, 2, 3, 4}, {0, 0, 5, 8}, {2, 2, 2, 2}}
	for _, r := range rects {
		p := r.SnakePath(tp)
		if len(p) != r.Area() {
			t.Fatalf("snake visits %d, want %d", len(p), r.Area())
		}
		seen := map[DieID]bool{}
		for i, d := range p {
			if seen[d] {
				t.Fatalf("snake revisits die %d", d)
			}
			seen[d] = true
			if i > 0 && !tp.Adjacent(p[i-1], d) {
				t.Fatalf("snake step %d→%d not adjacent", p[i-1], d)
			}
		}
	}
}

// Property: every rectangle with even area and both sides ≥2 yields a
// closed Hamiltonian ring.
func TestRingPathProperty(t *testing.T) {
	tp := grid(10, 10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		h := rng.Intn(5) + 2
		w := rng.Intn(5) + 2
		if h*w%2 == 1 {
			w++
		}
		if h > 10 || w > 10 {
			continue
		}
		r := Rect{0, 0, h - 1, w - 1}
		p, ok := r.RingPath(tp)
		if !ok {
			t.Fatalf("no ring for %dx%d", h, w)
		}
		if !tp.Adjacent(p[len(p)-1], p[0]) {
			t.Fatalf("%dx%d ring does not close: %v", h, w, p)
		}
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	tp := grid(5, 7)
	f := func(a, b uint8) bool {
		x := DieID(int(a) % tp.Dies())
		y := DieID(int(b) % tp.Dies())
		return tp.HopDistance(x, y) == tp.HopDistance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
