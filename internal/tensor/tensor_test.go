package tensor

import (
	"testing"
	"testing/quick"

	"temp/internal/unit"
)

func TestShapeElemsAndBytes(t *testing.T) {
	tests := []struct {
		s         Shape
		wantElems int64
		wantBytes float64
	}{
		{NewShape("w", 0, 0, 4096, 4096, unit.FP16), 4096 * 4096, 4096 * 4096 * 2},
		{Activation("a", 8, 2048, 4096, unit.FP16), 8 * 2048 * 4096, 8 * 2048 * 4096 * 2},
		{NewShape("scalar", 0, 0, 0, 0, unit.FP32), 0, 0},
		{Weight("w2", 10, 20, unit.FP32), 200, 800},
	}
	for _, tc := range tests {
		if got := tc.s.Elems(); got != tc.wantElems {
			t.Errorf("%v.Elems() = %d, want %d", tc.s, got, tc.wantElems)
		}
		if got := tc.s.Bytes(); got != tc.wantBytes {
			t.Errorf("%v.Bytes() = %v, want %v", tc.s, got, tc.wantBytes)
		}
	}
}

func TestShapeString(t *testing.T) {
	s := NewShape("act", 8, 2048, 4096, 0, unit.FP16)
	want := "act[B=8 M=2048 N=4096]fp16"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestPartitionWays(t *testing.T) {
	p := Partition{Split: [numDims]int{2, 1, 1, 4}, Replicas: 1}
	if got := p.Ways(); got != 8 {
		t.Errorf("Ways() = %d, want 8", got)
	}
	if got := p.Devices(); got != 8 {
		t.Errorf("Devices() = %d, want 8", got)
	}
	pr := p
	pr.Replicas = 2
	if got := pr.Devices(); got != 16 {
		t.Errorf("Devices() with replicas = %d, want 16", got)
	}
}

func TestShardShape(t *testing.T) {
	s := NewShape("w", 0, 0, 4096, 8192, unit.FP16)
	p := Partition{Split: [numDims]int{1, 1, 4, 2}, Replicas: 1}
	sh := p.ShardShape(s)
	if sh.Ext[N] != 1024 || sh.Ext[K] != 4096 {
		t.Errorf("ShardShape = %v", sh)
	}
	// Splits along absent dims are ignored.
	q := Partition{Split: [numDims]int{8, 1, 1, 1}, Replicas: 1}
	if got := q.ShardShape(s); got.Elems() != s.Elems() {
		t.Errorf("absent-dim split changed size: %v", got)
	}
}

func TestShardShapeRaggedCeil(t *testing.T) {
	s := NewShape("w", 0, 0, 10, 0, unit.FP16)
	p := Partition{Split: [numDims]int{1, 1, 3, 1}, Replicas: 1}
	if got := p.ShardShape(s).Ext[N]; got != 4 {
		t.Errorf("ragged shard extent = %d, want ceil(10/3)=4", got)
	}
}

func TestGroupBytesReplicationInflation(t *testing.T) {
	s := Activation("act", 8, 2048, 4096, unit.FP16)
	noRep := Partition{Split: [numDims]int{1, 4, 1, 1}, Replicas: 1}
	rep := Partition{Split: [numDims]int{1, 1, 1, 1}, Replicas: 4}
	if got, want := noRep.GroupBytes(s), s.Bytes(); got != want {
		t.Errorf("replication-free GroupBytes = %v, want %v", got, want)
	}
	if got, want := rep.GroupBytes(s), 4*s.Bytes(); got != want {
		t.Errorf("replicated GroupBytes = %v, want %v", got, want)
	}
}

// Property: for divisible splits, per-shard bytes × ways == total
// bytes (partitioning conserves data volume when replica count is 1).
func TestPartitionConservesBytes(t *testing.T) {
	f := func(bs, ms uint8, fb, fm uint8) bool {
		b := int64(bs%16+1) * 8
		m := int64(ms%16+1) * 64
		factB := int(fb%3 + 1) // 1..3 -> choose divisors of 8
		factM := int(fm%4 + 1)
		divB := []int{1, 2, 4}[factB-1]
		divM := []int{1, 2, 4, 8}[factM-1]
		s := Activation("a", b, m, 128, unit.FP16)
		p := Partition{Split: [numDims]int{divB, divM, 1, 1}, Replicas: 1}
		return p.ShardBytes(s)*float64(p.Ways()) == s.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReshardBytes(t *testing.T) {
	s := Activation("a", 8, 2048, 4096, unit.FP16)
	p := Partition{Split: [numDims]int{1, 4, 1, 1}, Replicas: 1}
	q := Partition{Split: [numDims]int{4, 1, 1, 1}, Replicas: 1}
	if got := ReshardBytes(s, p, p); got != 0 {
		t.Errorf("identical layouts should be free, got %v", got)
	}
	if got := ReshardBytes(s, p, q); got != q.ShardBytes(s) {
		t.Errorf("layout change cost = %v, want %v", got, q.ShardBytes(s))
	}
	// A split-factor change along an absent dim is free.
	w := Weight("w", 128, 128, unit.FP16)
	pb := Partition{Split: [numDims]int{2, 1, 1, 1}, Replicas: 1}
	qb := Partition{Split: [numDims]int{8, 1, 1, 1}, Replicas: 1}
	if got := ReshardBytes(w, pb, qb); got != 0 {
		t.Errorf("absent-dim reshard should be free, got %v", got)
	}
}

func TestPartitionString(t *testing.T) {
	p := Partition{Split: [numDims]int{2, 1, 1, 4}, Replicas: 2}
	if got := p.String(); got != "split[B/2 K/4]×2rep" {
		t.Errorf("String() = %q", got)
	}
}

func TestDimString(t *testing.T) {
	names := map[Dim]string{B: "B", M: "M", N: "N", K: "K"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("Dim %d String = %q, want %q", d, d.String(), want)
		}
	}
}
