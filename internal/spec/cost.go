package spec

import (
	"fmt"
	"strings"

	"temp/internal/cost"
)

// CostSpec selects the cost backend pricing a scenario — the fidelity
// axis, serializable like every other spec. The zero spec is the
// analytic tier (the historical monolithic model, golden-pinned).
//
//	"cost": {"backend": "replay"}
//	"cost": {"backend": "surrogate", "seed": 42}
//
// Seed drives the surrogate tier's train-once randomness; runs with
// the same spec are bit-identical end to end (deterministic sampling,
// seeded training, frozen weights at inference).
type CostSpec struct {
	// Backend names a registered cost backend (analytic | replay |
	// surrogate); empty defaults to analytic.
	Backend string `json:"backend,omitempty"`
	// Seed seeds surrogate training; 0 means
	// cost.DefaultSurrogateSeed. Deterministic tiers ignore it.
	Seed int64 `json:"seed,omitempty"`
}

// BackendName returns the defaulted backend name.
func (s CostSpec) BackendName() string {
	name := strings.ToLower(strings.TrimSpace(s.Backend))
	if name == "" {
		return "analytic"
	}
	return name
}

// Key returns the canonical backend key threaded through engine jobs
// and baselines sweeps ("" for analytic). A seed embedded in the
// backend name ("surrogate@seed=42") wins over the Seed field, so
// CLI -backend key forms compose with the default -seed flag.
func (s CostSpec) Key() string {
	name := s.BackendName()
	if strings.Contains(name, "@") {
		return cost.CanonicalBackendKey(name)
	}
	return cost.CanonicalBackendKey(cost.BackendKey(name, s.Seed))
}

// Validate reports structural problems with the spec.
func (s CostSpec) Validate() error {
	_, err := s.Build()
	return err
}

// CostStage is a resolved CostSpec: the backend instance plus the
// canonical key scenario evaluation threads through the engine.
type CostStage struct {
	Key     string
	Backend cost.Backend
}

// SurrogateSeed returns the stage's surrogate training seed, or 0
// when the stage is nil or its backend is not seeded — the seed the
// solver's screening tier reuses so one spec pins a whole run.
func (cs *CostStage) SurrogateSeed() int64 {
	if cs == nil || cs.Backend == nil {
		return 0
	}
	if s, ok := cs.Backend.(interface{ Seed() int64 }); ok {
		return s.Seed()
	}
	return 0
}

// Build resolves the spec against the cost-backend registry.
func (s CostSpec) Build() (*CostStage, error) {
	key := s.Key()
	be, err := cost.NewBackend(key)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &CostStage{Key: key, Backend: be}, nil
}
