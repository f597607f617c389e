// Package collective lowers the communication primitives of
// distributed training — all-reduce, all-gather, reduce-scatter,
// broadcast and point-to-point chains — onto wafer mesh flows. The
// ring algorithms operate over an ordered die list (a physical ring
// or chain produced by the placement layer); when the ring does not
// physically close, the wrap-around step is routed multi-hop across
// the mesh, which is exactly the topology mismatch the paper's
// baselines suffer from.
package collective

import (
	"fmt"

	"temp/internal/mesh"
)

// ringStep emits one phase in which every position i sends chunkBytes
// to position (i+1) mod N along the order, tagging flows with the
// payload prefix. On an open chain the N-1→0 step is a multi-hop
// route.
func ringStep(t *mesh.Topology, order []mesh.DieID, chunkBytes float64, payload string) mesh.Phase {
	n := len(order)
	var ph mesh.Phase
	for i := 0; i < n; i++ {
		src, dst := order[i], order[(i+1)%n]
		route := t.Route(src, dst)
		if route == nil {
			continue
		}
		ph.Flows = append(ph.Flows, mesh.Flow{
			Src:     src,
			Dst:     dst,
			Bytes:   chunkBytes,
			Route:   route,
			Payload: fmt.Sprintf("%s.pos%d", payload, i),
		})
	}
	return ph
}

// RingAllReduce lowers a bandwidth-optimal ring all-reduce of bytes
// per participant: a reduce-scatter pass followed by an all-gather
// pass, 2(N-1) steps of bytes/N chunks.
func RingAllReduce(t *mesh.Topology, order []mesh.DieID, bytes float64) []mesh.Phase {
	n := len(order)
	if n <= 1 || bytes <= 0 {
		return nil
	}
	return lower(t, kindAllReduce, "", order, bytes/float64(n), func(chunk float64) []mesh.Phase {
		phases := make([]mesh.Phase, 0, 2*(n-1))
		for s := 0; s < n-1; s++ {
			phases = append(phases, ringStep(t, order, chunk, fmt.Sprintf("ar.rs%d", s)))
		}
		for s := 0; s < n-1; s++ {
			phases = append(phases, ringStep(t, order, chunk, fmt.Sprintf("ar.ag%d", s)))
		}
		return phases
	})
}

// RingAllGather lowers an all-gather where every participant
// contributes shardBytes and ends holding all N shards: N-1 ring
// steps of shardBytes each.
func RingAllGather(t *mesh.Topology, order []mesh.DieID, shardBytes float64) []mesh.Phase {
	n := len(order)
	if n <= 1 || shardBytes <= 0 {
		return nil
	}
	return lower(t, kindAllGather, "", order, shardBytes, func(shard float64) []mesh.Phase {
		phases := make([]mesh.Phase, 0, n-1)
		for s := 0; s < n-1; s++ {
			phases = append(phases, ringStep(t, order, shard, fmt.Sprintf("ag%d", s)))
		}
		return phases
	})
}

// RingReduceScatter lowers a reduce-scatter of bytes per participant
// into N-1 ring steps of bytes/N chunks.
func RingReduceScatter(t *mesh.Topology, order []mesh.DieID, bytes float64) []mesh.Phase {
	n := len(order)
	if n <= 1 || bytes <= 0 {
		return nil
	}
	return lower(t, kindReduceScatter, "", order, bytes/float64(n), func(chunk float64) []mesh.Phase {
		phases := make([]mesh.Phase, 0, n-1)
		for s := 0; s < n-1; s++ {
			phases = append(phases, ringStep(t, order, chunk, fmt.Sprintf("rs%d", s)))
		}
		return phases
	})
}

// Broadcast lowers a one-to-many transfer of bytes from root to dsts
// as a single multicast-tree phase.
func Broadcast(t *mesh.Topology, root mesh.DieID, dsts []mesh.DieID, bytes float64, payload string) []mesh.Phase {
	if len(dsts) == 0 || bytes <= 0 {
		return nil
	}
	key := append([]mesh.DieID{root}, dsts...)
	return lower(t, kindBroadcast, payload, key, bytes, func(bytes float64) []mesh.Phase {
		flows := mesh.MulticastTree(t, root, dsts, bytes, payload)
		if len(flows) == 0 {
			return nil
		}
		return []mesh.Phase{{Flows: flows}}
	})
}

// P2P lowers a single point-to-point transfer.
func P2P(t *mesh.Topology, src, dst mesh.DieID, bytes float64, payload string) []mesh.Phase {
	if bytes <= 0 || src == dst {
		return nil
	}
	return lower(t, kindP2P, payload, []mesh.DieID{src, dst}, bytes, func(bytes float64) []mesh.Phase {
		route := t.Route(src, dst)
		if route == nil {
			return nil
		}
		return []mesh.Phase{{
			Flows: []mesh.Flow{{Src: src, Dst: dst, Bytes: bytes, Route: route, Payload: payload}},
		}}
	})
}

// P2PChain lowers a pipeline of transfers src→…→dst along an ordered
// die list (the inter-group chain transfers of Fig. 11's TATP
// example): each consecutive pair exchanges bytes in one phase.
func P2PChain(t *mesh.Topology, order []mesh.DieID, bytes float64, payload string) []mesh.Phase {
	if len(order) < 2 || bytes <= 0 {
		return nil
	}
	return lower(t, kindChain, payload, order, bytes, func(bytes float64) []mesh.Phase {
		var ph mesh.Phase
		for i := 0; i+1 < len(order); i++ {
			route := t.Route(order[i], order[i+1])
			if route == nil {
				continue
			}
			ph.Flows = append(ph.Flows, mesh.Flow{
				Src:     order[i],
				Dst:     order[i+1],
				Bytes:   bytes,
				Route:   route,
				Payload: fmt.Sprintf("%s.hop%d", payload, i),
			})
		}
		if len(ph.Flows) == 0 {
			return nil
		}
		return []mesh.Phase{ph}
	})
}

// Merge combines the flows of several concurrently executing phase
// sequences into a single phase sequence, aligning step k of every
// sequence into one shared phase. This is how hybrid parallelism's
// overlapping collectives (e.g. FSDP all-gather + TATP P2P, Fig. 11)
// are exposed to the contention model and the TCME optimizer.
func Merge(seqs ...[]mesh.Phase) []mesh.Phase {
	maxLen := 0
	for _, s := range seqs {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	out := make([]mesh.Phase, maxLen)
	for k := 0; k < maxLen; k++ {
		for si, s := range seqs {
			if k < len(s) {
				for _, f := range s[k].Flows {
					f.Payload = fmt.Sprintf("s%d.%s", si, f.Payload)
					out[k].Flows = append(out[k].Flows, f)
				}
			}
		}
	}
	return out
}
