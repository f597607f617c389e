package spec

import (
	"encoding/json"
	"testing"
)

func TestCostSpecKeyAndBuild(t *testing.T) {
	cases := []struct {
		spec CostSpec
		key  string
	}{
		{CostSpec{}, ""},
		{CostSpec{Backend: "analytic"}, ""},
		{CostSpec{Backend: "Replay"}, "replay"},
		{CostSpec{Backend: "replay", Seed: 9}, "replay"},
		{CostSpec{Backend: "surrogate"}, "surrogate@seed=1"},
		{CostSpec{Backend: "surrogate", Seed: 42}, "surrogate@seed=42"},
		// A seed embedded in the name (the CLI key form) wins over the
		// Seed field, so "-backend surrogate@seed=42" composes with
		// the default -seed.
		{CostSpec{Backend: "surrogate@seed=42", Seed: 7}, "surrogate@seed=42"},
	}
	for _, tc := range cases {
		if got := tc.spec.Key(); got != tc.key {
			t.Errorf("CostSpec%+v.Key() = %q, want %q", tc.spec, got, tc.key)
		}
		stage, err := tc.spec.Build()
		if err != nil {
			t.Errorf("CostSpec%+v.Build(): %v", tc.spec, err)
			continue
		}
		if stage.Key != tc.key {
			t.Errorf("stage key %q, want %q", stage.Key, tc.key)
		}
		if stage.Backend == nil {
			t.Errorf("CostSpec%+v built nil backend", tc.spec)
		}
	}
	if err := (CostSpec{Backend: "no-such-tier"}).Validate(); err == nil {
		t.Error("unknown backend validated")
	}
}

func TestScenarioCostStageRoundTrip(t *testing.T) {
	raw := []byte(`{
		"name": "surrogate-run",
		"model": "gpt3-6.7b",
		"wafer": "wsc-4x8",
		"cost": {"backend": "surrogate", "seed": 42},
		"config": {"dp": 2, "tp": 4, "tatp": 4}
	}`)
	ss, err := ParseScenario(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Cost == nil || ss.Cost.Backend != "surrogate" || ss.Cost.Seed != 42 {
		t.Fatalf("cost stage did not parse: %+v", ss.Cost)
	}
	sc, err := ss.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cost == nil || sc.Cost.Key != "surrogate@seed=42" {
		t.Fatalf("resolved cost stage %+v", sc.Cost)
	}
	// JSON round-trip preserves the stage.
	buf, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := ParseScenario(buf)
	if err != nil {
		t.Fatal(err)
	}
	if ss2.Cost == nil || *ss2.Cost != *ss.Cost {
		t.Fatalf("round-trip lost the cost stage: %+v", ss2.Cost)
	}
	// Unknown backends fail at Resolve with the scenario's name.
	bad := ss
	bad.Cost = &CostSpec{Backend: "fpga"}
	if _, err := bad.Resolve(); err == nil {
		t.Error("unknown backend resolved")
	}
}
