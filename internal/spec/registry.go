package spec

import (
	"fmt"
	"strings"
	"sync"

	"temp/internal/baselines"
	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
)

// Registry is a name-keyed catalogue of constructors. Lookups are
// forgiving: names are canonicalized (case, spaces, "-", "_", ".",
// "+" ignored) and a query that is a substring of exactly one — or,
// for compatibility with the historical CLI matching, the first in
// registration order — registered name also resolves.
type Registry[T any] struct {
	mu    sync.RWMutex
	order []string
	items map[string]func() T
}

// NewRegistry returns an empty registry.
func NewRegistry[T any]() *Registry[T] {
	return &Registry[T]{items: make(map[string]func() T)}
}

// canonical collapses a name to its matching key.
func canonical(name string) string {
	return strings.ToLower(strings.NewReplacer(
		" ", "", "-", "", "_", "", ".", "", "+", "").Replace(name))
}

// Register adds a named constructor. Re-registering a name replaces
// the previous constructor (user specs may shadow built-ins).
func (r *Registry[T]) Register(name string, build func() T) {
	key := canonical(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.items[key]; !exists {
		r.order = append(r.order, name)
	} else {
		for i, n := range r.order {
			if canonical(n) == key {
				r.order[i] = name
				break
			}
		}
	}
	r.items[key] = build
}

// Lookup resolves a name to a freshly-built value. Exact canonical
// matches win; otherwise the first registered name containing the
// query matches (so "gpt3-175b", "GPT-3 175B" and "175b" all work).
func (r *Registry[T]) Lookup(name string) (T, bool) {
	key := canonical(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var zero T
	if key == "" {
		return zero, false
	}
	if b, ok := r.items[key]; ok {
		return b(), true
	}
	for _, n := range r.order {
		if strings.Contains(canonical(n), key) {
			return r.items[canonical(n)](), true
		}
	}
	return zero, false
}

// Names lists registered names in registration (paper) order.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Package-level registries, pre-populated with every constructor the
// paper's evaluation uses.
var (
	// Wafers maps names to wafer constructors (wsc-4x8, wsc-6x8,
	// wsc-4x8-a100match).
	Wafers = NewRegistry[hw.Wafer]()
	// Models maps names to the model zoo (Table II, §VIII-E and
	// Fig. 4 models).
	Models = NewRegistry[model.Config]()
	// Systems maps names to the §VIII-A comparison systems (the six
	// baselines plus TEMP).
	Systems = NewRegistry[baselines.System]()
)

func init() {
	for _, build := range []func() hw.Wafer{
		hw.EvaluationWafer, hw.ReferenceWafer, hw.ComparisonWafer32,
	} {
		w := build()
		Wafers.Register(w.Name, build)
	}
	for _, m := range model.Zoo() {
		m := m
		Models.Register(m.Name, func() model.Config { return m })
	}
	for _, build := range []func() baselines.System{
		func() baselines.System { return baselines.Megatron1(cost.SMap) },
		func() baselines.System { return baselines.Megatron1(cost.GMap) },
		func() baselines.System { return baselines.MeSP(cost.SMap) },
		func() baselines.System { return baselines.MeSP(cost.GMap) },
		func() baselines.System { return baselines.FSDP(cost.SMap) },
		func() baselines.System { return baselines.FSDP(cost.GMap) },
		baselines.TEMP,
	} {
		s := build()
		Systems.Register(s.Name, build)
	}
}

// LookupWafer resolves a registered wafer name.
func LookupWafer(name string) (hw.Wafer, error) {
	if w, ok := Wafers.Lookup(name); ok {
		return w, nil
	}
	return hw.Wafer{}, fmt.Errorf("spec: unknown wafer %q (have %s)", name, strings.Join(Wafers.Names(), ", "))
}

// LookupModel resolves a registered model name.
func LookupModel(name string) (model.Config, error) {
	if m, ok := Models.Lookup(name); ok {
		return m, nil
	}
	return model.Config{}, fmt.Errorf("spec: unknown model %q (have %s)", name, strings.Join(Models.Names(), ", "))
}

// LookupSystem resolves a registered system name.
func LookupSystem(name string) (baselines.System, error) {
	if s, ok := Systems.Lookup(name); ok {
		return s, nil
	}
	return baselines.System{}, fmt.Errorf("spec: unknown system %q (have %s)", name, strings.Join(Systems.Names(), ", "))
}
