package mesh

import (
	"sync"
	"sync/atomic"

	"temp/internal/hw"
)

// The topology interner. Every cost-model evaluation begins by
// materializing the wafer's mesh; the interner hands out one frozen
// healthy topology per (rows, cols, link parameters), so the
// evaluation hot path shares a single immutable instance. A topology
// is healthy when no die and no link is dead: core loss is not routing
// state, so a core-only fault mask prices on the shared instance too.
//
// The derived-structure caches (the cost model's lowering states with
// their merged templates and route plans, and link profiles) key off a
// routing identity, not a link spec: link parameters are timing state,
// so the first healthy instance interned for a grid owns the caches of
// every healthy instance of that grid. A new D2D bandwidth on a known
// grid therefore lowers nothing and runs no TCME; per link spec the
// interner keeps only the small Topology itself.
//
// Faulted topologies are not tabled: a fault study draws a fresh mask
// per trial with no cross-trial reuse, so Intern freezes a faulted
// topology in place, it owns its caches (its Route memo among them),
// and they live exactly as long as its holder keeps it.

// internKey identifies one healthy topology. hw.D2D is a flat struct
// of floats, so the key is comparable.
type internKey struct {
	rows, cols int
	link       hw.D2D
}

// gridKey identifies one routing identity: a healthy grid.
type gridKey struct{ rows, cols int }

var interner = struct {
	mu      sync.Mutex
	healthy map[internKey]*Topology
	// owners holds the first healthy instance interned per grid, the
	// owner of every later one's derived caches.
	owners map[gridKey]*Topology
}{healthy: map[internKey]*Topology{}, owners: map[gridKey]*Topology{}}

// Shared returns the interned immutable healthy topology for the
// given grid and link parameters.
func Shared(rows, cols int, link hw.D2D) *Topology {
	key := internKey{rows: rows, cols: cols, link: link}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	if t, ok := interner.healthy[key]; ok {
		return t
	}
	var t *Topology
	if owner, ok := interner.owners[gridKey{rows, cols}]; ok {
		// A link variant: the owner's clone shares its immutable link
		// index, and its routing identity is the owner's.
		t = owner.Clone()
		t.link = link
		t.owner = owner
	} else {
		t = New(rows, cols, link)
		interner.owners[gridKey{rows, cols}] = t
	}
	t.frozen = true
	interner.healthy[key] = t
	return t
}

// Intern returns the immutable instance of the receiver's state: the
// Shared/FromWafer instance when no die or link is dead, and the
// receiver itself, frozen in place, for a faulted one. After Intern
// the receiver must be treated as immutable — the Set* mutators panic.
func (t *Topology) Intern() *Topology {
	if t.frozen {
		return t
	}
	if t.healthy() {
		return Shared(t.rows, t.cols, t.link)
	}
	t.routes = make([]atomic.Pointer[routeRow], len(t.dieAlive))
	t.frozen = true
	return t
}

// Clone returns a mutable deep copy of the topology's fault state.
// The immutable link index is shared with the receiver; the clone owns
// its own derived caches and starts with no Route memo.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		rows:      t.rows,
		cols:      t.cols,
		link:      t.link,
		dieAlive:  append([]bool(nil), t.dieAlive...),
		linkAlive: append([]bool(nil), t.linkAlive...),
		deadDies:  t.deadDies,
		deadLinks: t.deadLinks,
		links:     t.links,
		slot:      t.slot,
	}
	c.owner = c
	return c
}

// Derived returns the value cached under key on a frozen topology,
// building it with build on the first request. Concurrent first
// requests may build twice; builds must be deterministic, and one
// winner is kept. Entries live on the topology's owner, so every
// healthy instance of one grid shares them, and are collected with it:
// a build must therefore not depend on link parameters. On a mutable
// topology nothing is cached (the result would go stale on the next
// fault mutation) and build's result is returned directly.
func (t *Topology) Derived(key any, build func() any) any {
	if !t.frozen {
		return build()
	}
	if v, ok := t.owner.derived.Load(key); ok {
		return v
	}
	v, _ := t.owner.derived.LoadOrStore(key, build())
	return v
}
