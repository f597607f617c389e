// Package tensor models logical tensor shapes and the partition
// descriptors used by TEMP's unified parallelism representation
// (paper §VI-A, Fig. 10). A tensor in a transformer training step is
// described by up to four named dimensions:
//
//	B — batch
//	M — sequence (token) dimension
//	N — input-feature (hidden) dimension
//	K — output-feature (intermediate) dimension
//
// Parallel strategies split these dimensions: DP splits B, SP/CP
// split M, TP splits N or K, and TATP splits the pair of dimensions
// it streams over. A Partition records the split factor along every
// dimension plus the replication factor, which is what distinguishes
// the memory-efficient stream partitioning from replication-relied
// tensor parallelism (Fig. 1).
package tensor

import (
	"fmt"
	"strings"

	"temp/internal/unit"
)

// Dim names a logical tensor dimension.
type Dim int

// The four logical dimensions of Eq. (1)'s linear-operator tensors.
const (
	B Dim = iota // batch
	M            // sequence
	N            // input features / hidden
	K            // output features / intermediate
	numDims
)

// String implements fmt.Stringer.
func (d Dim) String() string {
	switch d {
	case B:
		return "B"
	case M:
		return "M"
	case N:
		return "N"
	case K:
		return "K"
	default:
		return fmt.Sprintf("Dim(%d)", int(d))
	}
}

// Dims enumerates all dimensions in canonical order.
func Dims() []Dim { return []Dim{B, M, N, K} }

// Shape is a dense logical tensor shape. A zero extent means the
// dimension is absent (e.g. a weight matrix has no B or M extent).
type Shape struct {
	Name  string
	Ext   [numDims]int64
	DType unit.DType
}

// NewShape builds a shape; absent dimensions are passed as 0.
func NewShape(name string, b, m, n, k int64, dt unit.DType) Shape {
	return Shape{Name: name, Ext: [numDims]int64{b, m, n, k}, DType: dt}
}

// Weight builds an [N, K] weight shape.
func Weight(name string, n, k int64, dt unit.DType) Shape {
	return NewShape(name, 0, 0, n, k, dt)
}

// Activation builds a [B, M, H] activation shape where the hidden
// extent is stored in the N slot.
func Activation(name string, b, m, h int64, dt unit.DType) Shape {
	return NewShape(name, b, m, h, 0, dt)
}

// Elems returns the number of elements (product of present extents).
func (s Shape) Elems() int64 {
	p := int64(1)
	present := false
	for _, e := range s.Ext {
		if e > 0 {
			p *= e
			present = true
		}
	}
	if !present {
		return 0
	}
	return p
}

// Bytes returns the dense size in bytes.
func (s Shape) Bytes() float64 {
	return float64(s.Elems()) * s.DType.Size()
}

// Has reports whether dimension d is present.
func (s Shape) Has(d Dim) bool { return s.Ext[d] > 0 }

// String renders e.g. "act[B=8 M=2048 N=4096]fp16".
func (s Shape) String() string {
	var sb strings.Builder
	sb.WriteString(s.Name)
	sb.WriteByte('[')
	first := true
	for _, d := range Dims() {
		if s.Ext[d] == 0 {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%s=%d", d, s.Ext[d])
	}
	sb.WriteByte(']')
	sb.WriteString(s.DType.String())
	return sb.String()
}

// Partition records how a tensor is split across a device group: the
// split factor along each dimension and the number of replicas of
// each shard. A stationary Megatron-style activation under TP has
// Replicas == TP degree; a TATP stream partition always has
// Replicas == 1 (non-overlapping sub-tensors, Fig. 1(b)).
type Partition struct {
	Split    [numDims]int
	Replicas int
}

// Unit returns the trivial partition (whole tensor, one copy).
func Unit() Partition {
	return Partition{Split: [numDims]int{1, 1, 1, 1}, Replicas: 1}
}

// Ways returns the total number of distinct shards.
func (p Partition) Ways() int {
	w := 1
	for _, f := range p.Split {
		if f > 1 {
			w *= f
		}
	}
	return w
}

// String renders e.g. "split[B/2 K/4]×2rep".
func (p Partition) String() string {
	var sb strings.Builder
	sb.WriteString("split[")
	first := true
	for _, d := range Dims() {
		f := p.Split[d]
		if f <= 1 {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%s/%d", d, f)
	}
	sb.WriteByte(']')
	if p.Replicas > 1 {
		fmt.Fprintf(&sb, "×%drep", p.Replicas)
	}
	return sb.String()
}

// ShardShape returns the shape of one shard of s under p. Splits
// along absent dimensions are ignored. Extents divide with ceiling to
// model padding of ragged shards.
func (p Partition) ShardShape(s Shape) Shape {
	out := s
	for _, d := range Dims() {
		f := p.Split[d]
		if f <= 1 || s.Ext[d] == 0 {
			continue
		}
		out.Ext[d] = int64(unit.CeilDiv(int(s.Ext[d]), f))
	}
	return out
}

// ShardBytes returns the per-device resident bytes of s under p: one
// shard (replication does not change per-device residency, it changes
// how many devices hold the same shard).
func (p Partition) ShardBytes(s Shape) float64 {
	return p.ShardShape(s).Bytes()
}

// ReshardBytes estimates the per-device data volume that must move to
// convert a shard of s laid out under p into the layout q. Dimensions
// whose split factor changes force the affected bytes to be
// exchanged; the estimate charges the destination shard size once for
// any layout change, and zero when the layouts are identical. This is
// the inter-operator P2P term of Eq. (3).
func ReshardBytes(s Shape, p, q Partition) float64 {
	if p == q {
		return 0
	}
	same := true
	for _, d := range Dims() {
		a, b := p.Split[d], q.Split[d]
		if a == 0 {
			a = 1
		}
		if b == 0 {
			b = 1
		}
		if a != b && s.Has(d) {
			same = false
			break
		}
	}
	if same && p.Replicas == q.Replicas {
		return 0
	}
	return q.ShardBytes(s)
}
