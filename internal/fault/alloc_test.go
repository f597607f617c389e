package fault

import (
	"math/rand"
	"testing"

	"temp/internal/hw"
	"temp/internal/mesh"
)

// TestApplyAllocFree pins the de-allocated injection hot path: walking
// the dense canonical link index (no per-trial dedup map) keeps Apply
// at zero allocations per call.
func TestApplyAllocFree(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer()).Clone()
	rng := rand.New(rand.NewSource(9))
	in := Injection{LinkRate: 0.2, CoreRate: 0.1, CoresPerDie: 64}
	allocs := testing.AllocsPerRun(100, func() {
		in.Apply(topo, rng)
	})
	if allocs != 0 {
		t.Errorf("Apply allocates %.0f times per call, want 0", allocs)
	}
}

// TestLocalizeAllocBound: Localize itself is allocation-free except
// for the connectivity scan's seen/stack scratch — bound it so the
// dense-index walk never regresses to a map-per-call.
func TestLocalizeAllocBound(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer()).Clone()
	Injection{LinkRate: 0.15}.Apply(topo, rand.New(rand.NewSource(3)))
	allocs := testing.AllocsPerRun(100, func() {
		Localize(topo, 1)
	})
	if allocs > 4 {
		t.Errorf("Localize allocates %.0f times per call, want <= 4", allocs)
	}
}
