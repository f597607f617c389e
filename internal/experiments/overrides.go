package experiments

import (
	"fmt"
	"slices"
	"strings"

	"temp/internal/engine"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/spec"
)

// The experiment runners default to the paper's exact footing (the
// §VIII-A evaluation wafer, the Table II model set) but resolve both
// through the scenario registry, so CLI overrides can re-run any
// Table-II-driven experiment on a different wafer or model set.
// Overrides are set once before a run starts; the runners read them
// concurrently.
var (
	overrideModels []model.Config
	overrideWafer  *hw.Wafer
)

// UseModels restricts the experiment model set to the named
// registered models (comma-separated lists are accepted per entry).
func UseModels(names ...string) error {
	var ms []model.Config
	for _, entry := range names {
		for _, name := range strings.Split(entry, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			m, err := spec.LookupModel(name)
			if err != nil {
				return fmt.Errorf("experiments: %w", err)
			}
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return fmt.Errorf("experiments: no models named")
	}
	overrideModels = ms
	return nil
}

// UseBackend retargets every experiment evaluation at a registered
// cost backend (the -backend flag): the shared engine's default
// backend is swapped, so all sweeps price through the chosen fidelity
// tier. Backend keys accept a training seed ("surrogate@seed=7").
func UseBackend(key string) error {
	if _, err := engine.SetDefaultBackend(key); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// UseWafer redirects the experiments to a registered wafer. The
// experiment sweeps enumerate power-of-two degree products, so a
// wafer whose die count is not a power of two is rejected here rather
// than failing mid-suite with empty configuration spaces.
func UseWafer(name string) error {
	w, err := spec.LookupWafer(name)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if d := w.Dies(); d&(d-1) != 0 {
		return fmt.Errorf("experiments: wafer %s has %d dies (%dx%d), not a power of two; the baseline sweeps need power-of-two grids",
			w.Name, d, w.Rows, w.Cols)
	}
	overrideWafer = &w
	return nil
}

// evalWafer returns the wafer the Table-II experiments run on.
func evalWafer() hw.Wafer {
	if overrideWafer != nil {
		return *overrideWafer
	}
	return hw.EvaluationWafer()
}

// overriddenModels returns a copy of the override set (or nil).
// Runners append figure-specific models to what evalModels returns,
// so handing out the global slice would alias its backing array
// across concurrently-running experiments.
func overriddenModels() []model.Config {
	if len(overrideModels) == 0 {
		return nil
	}
	return slices.Clone(overrideModels)
}
