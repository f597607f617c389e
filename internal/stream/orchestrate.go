package stream

import (
	"slices"
	"sync"

	"temp/internal/mesh"
)

// Operand identifies which operand of a linear operator is streamed
// between dies while the other stays resident.
type Operand int

// Streaming operand choices.
const (
	// StreamWeights keeps activations resident and streams weight
	// sub-tensors.
	StreamWeights Operand = iota
	// StreamInputs keeps weights resident and streams activation
	// sub-tensors.
	StreamInputs
)

// String implements fmt.Stringer.
func (o Operand) String() string {
	if o == StreamWeights {
		return "weights"
	}
	return "inputs"
}

// SelectOperand implements TATP's selective transfer policy (§V): the
// smaller operand is streamed to minimize communication. For long
// sequences activations dwarf weights, so weights stream; for short
// sequences with small batches the reverse can hold.
func SelectOperand(weightBytes, inputBytes float64) Operand {
	if inputBytes < weightBytes {
		return StreamInputs
	}
	return StreamWeights
}

// Orchestration binds a stream schedule to physical dies: position j
// of the schedule executes on Order[j].
type Orchestration struct {
	// Sched is read-only: Orchestrate shares one schedule among every
	// orchestration of its (mode, N).
	Sched *Schedule
	// Order maps logical chain position to physical die.
	Order []mesh.DieID
	// ClosesRing reports whether Order[N-1] and Order[0] are mesh
	// neighbors (a physical ring exists).
	ClosesRing bool
	topo       *mesh.Topology
}

// Mode returns the orchestration mode.
func (o *Orchestration) Mode() Mode { return o.Sched.Mode }

// N returns the group size.
func (o *Orchestration) N() int { return o.Sched.N }

// Orchestrate picks the best orchestration for a die group (§V logic
// design):
//
//   - groups that fill a ring-capable rectangle use the physical-ring
//     order with the naive ring schedule — contention-free single-hop
//     transfers at 1× volume;
//   - other contiguous rectangles use the snake Hamiltonian path with
//     the bidirectional schedule — single-hop at 2× volume;
//   - non-contiguous groups keep their given order and fall back to a
//     multi-hop logical ring, the tail-latency case TEMP's mapping
//     avoids creating.
func Orchestrate(t *mesh.Topology, dies []mesh.DieID, rect *mesh.Rect) *Orchestration {
	n := len(dies)
	if n == 0 {
		panic("stream: empty group")
	}
	if rect != nil && rect.Area() == n {
		if ring, ok := rect.RingPath(t); ok {
			return &Orchestration{Sched: sharedSchedule(Ring, n), Order: ring, ClosesRing: true, topo: t}
		}
		snake := rect.SnakePath(t)
		return &Orchestration{Sched: sharedSchedule(Bidirectional, n), Order: snake, topo: t}
	}
	// Non-contiguous: try to find a neighbor-to-neighbor ordering by
	// greedy chaining; if every consecutive pair is adjacent we can
	// still run the bidirectional schedule at one hop.
	if chain, ok := greedyChain(t, dies); ok {
		return &Orchestration{Sched: sharedSchedule(Bidirectional, n), Order: chain, topo: t}
	}
	order := append([]mesh.DieID(nil), dies...)
	return &Orchestration{Sched: sharedSchedule(Fallback, n), Order: order, topo: t}
}

// schedules holds Orchestrate's schedules, one per (mode, N), built
// on first use and read-only after: every orchestration of a (mode, N)
// shares one. The exported constructors build fresh schedules.
var schedules = struct {
	sync.Mutex
	m map[scheduleKey]*Schedule
}{m: map[scheduleKey]*Schedule{}}

type scheduleKey struct {
	mode Mode
	n    int
}

// sharedSchedule returns the table's schedule of (mode, n). The
// fallback schedule is the ring schedule run over scattered dies.
func sharedSchedule(mode Mode, n int) *Schedule {
	schedules.Lock()
	defer schedules.Unlock()
	k := scheduleKey{mode: mode, n: n}
	if s, ok := schedules.m[k]; ok {
		return s
	}
	var s *Schedule
	if mode == Bidirectional {
		s = BidirectionalSchedule(n)
	} else {
		s = RingSchedule(n)
		s.Mode = mode
	}
	schedules.m[k] = s
	return s
}

// greedyChain attempts to order dies into a path where consecutive
// dies are mesh neighbors. Works for L-shaped and snake-like groups.
func greedyChain(t *mesh.Topology, dies []mesh.DieID) ([]mesh.DieID, bool) {
	if len(dies) <= 1 {
		return append([]mesh.DieID(nil), dies...), true
	}
	inGroup := make(map[mesh.DieID]bool, len(dies))
	for _, d := range dies {
		inGroup[d] = true
	}
	degree := func(d mesh.DieID) int {
		n := 0
		for _, nb := range t.Neighbors(d) {
			if inGroup[nb] {
				n++
			}
		}
		return n
	}
	// Start from a die with the fewest in-group neighbors (a chain
	// endpoint, when one exists).
	start := dies[0]
	for _, d := range dies[1:] {
		if degree(d) < degree(start) {
			start = d
		}
	}
	order := []mesh.DieID{start}
	used := map[mesh.DieID]bool{start: true}
	for len(order) < len(dies) {
		cur := order[len(order)-1]
		next := mesh.DieID(-1)
		bestDeg := 1 << 30
		for _, nb := range t.Neighbors(cur) {
			if inGroup[nb] && !used[nb] && degree(nb) < bestDeg {
				next, bestDeg = nb, degree(nb)
			}
		}
		if next < 0 {
			return nil, false
		}
		order = append(order, next)
		used[next] = true
	}
	return order, true
}

// Phases lowers the schedule to mesh communication phases, one per
// round, with every send of subBytes (one sub-tensor) routed on the
// topology. It memoizes nothing: the evaluation state that prices an
// orchestration compiles its merged phases once. The flows carry the
// topology's routes, and repeated rounds share flows: callers read the
// result and never write into a returned flow.
//
// A ring or fallback send's datum is its sending position j, not its
// sub-tensor: each position forwards one distinct sub-tensor per
// round, so either datum keeps a round's flows unique per source, and
// TCME, which merges only flows of equal payload from one source,
// forms no merge group under either. Their rounds 0..N-2 send the same
// position pairs, so a round whose sends repeat the previous round's
// is that round, sharing its flows. A bidirectional send's datum is
// its sub-tensor k: round 0 sends each sub-tensor to both neighbours,
// a merge TCME may take, and later rounds send two different
// sub-tensors from one position.
func (o *Orchestration) Phases(subBytes float64) []mesh.Phase {
	byPos := o.Sched.Mode != Bidirectional
	phases := make([]mesh.Phase, len(o.Sched.Sends))
	for t, sends := range o.Sched.Sends {
		if byPos && t > 0 && slices.EqualFunc(sends, o.Sched.Sends[t-1], samePair) {
			phases[t] = phases[t-1]
			continue
		}
		var ph mesh.Phase
		for _, snd := range sends {
			src, dst := o.Order[snd.From], o.Order[snd.To]
			route := o.topo.Route(src, dst)
			if route == nil {
				continue // unreachable under faults; caller re-plans
			}
			datum := snd.SubT
			if byPos {
				datum = snd.From
			}
			ph.Flows = append(ph.Flows, mesh.Flow{
				Src:     src,
				Dst:     dst,
				Bytes:   subBytes,
				Route:   route,
				Payload: mesh.Payload{Datum: int32(datum)},
			})
		}
		phases[t] = ph
	}
	return phases
}

// samePair reports whether two sends join the same positions.
func samePair(a, b Send) bool { return a.From == b.From && a.To == b.To }
