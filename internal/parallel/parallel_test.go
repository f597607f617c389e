package parallel

import (
	"testing"

	"temp/internal/hw"
	"temp/internal/mesh"
)

func topo4x8() *mesh.Topology { return mesh.FromWafer(hw.EvaluationWafer()) }

func TestConfigNormalizeAndDegree(t *testing.T) {
	c := Config{DP: 2, TATP: 8}.Normalize()
	if c.TP != 1 || c.SP != 1 || c.CP != 1 || c.PP != 1 {
		t.Errorf("Normalize left zero degrees: %+v", c)
	}
	if c.Degree() != 16 {
		t.Errorf("Degree = %d, want 16", c.Degree())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{DP: 4, TATP: 8}).Validate(32); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{DP: 4, TATP: 4}).Validate(32); err == nil {
		t.Error("under-provisioned config accepted")
	}
}

func TestConfigString(t *testing.T) {
	c := Config{DP: 1, TP: 1, SP: 2, TATP: 16}
	if got := c.String(); got != "(DP=1,TP=1,SP=2,TATP=16)" {
		t.Errorf("String = %q", got)
	}
}

func TestShardAndReplicaFactors(t *testing.T) {
	tests := []struct {
		name   string
		cfg    Config
		wShard int
	}{
		// TP shards weights 8 ways; DP replicates them 4×.
		{name: "megatron-tp-dp", cfg: Config{DP: 4, TP: 8}, wShard: 8},
		{name: "fsdp", cfg: Config{DP: 32, FSDP: true}, wShard: 32},
		{name: "tatp-pure", cfg: Config{TATP: 32}, wShard: 32},
		{name: "mesp", cfg: Config{DP: 2, TP: 8, SP: 2, MegatronSP: true}, wShard: 8},
		{name: "hybrid-tatp", cfg: Config{DP: 2, TP: 2, TATP: 8}, wShard: 16},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cfg.Normalize()
			if got := c.WeightShardWays(); got != tc.wShard {
				t.Errorf("WeightShardWays = %d, want %d", got, tc.wShard)
			}
		})
	}
}

func TestPlaceCoversAllDiesOnce(t *testing.T) {
	topo := topo4x8()
	cfgs := []Config{
		{DP: 2, TP: 2, TATP: 8},
		{DP: 4, TATP: 8},
		{TATP: 32},
		{DP: 32},
		{DP: 2, TP: 4, SP: 2, TATP: 2},
		{DP: 1, TP: 1, SP: 2, TATP: 16},
	}
	for _, cfg := range cfgs {
		p, err := Place(cfg, topo)
		if err != nil {
			t.Fatalf("Place(%s): %v", cfg, err)
		}
		seen := map[mesh.DieID]int{}
		var walk func(level int, coord map[Strategy]int)
		strategies := Strategies()
		walk = func(level int, coord map[Strategy]int) {
			if level == len(strategies) {
				seen[p.DieAt(coord)]++
				return
			}
			s := strategies[level]
			for i := 0; i < cfg.Normalize().DegreeOf(s); i++ {
				coord[s] = i
				walk(level+1, coord)
			}
			coord[s] = 0
		}
		walk(0, map[Strategy]int{})
		if len(seen) != topo.Dies() {
			t.Errorf("%s: placement covers %d dies, want %d", cfg, len(seen), topo.Dies())
		}
		for d, n := range seen {
			if n != 1 {
				t.Errorf("%s: die %d assigned %d logical coords", cfg, d, n)
			}
		}
	}
}

func TestTATPGroupsAreContiguousRects(t *testing.T) {
	topo := topo4x8()
	cfgs := []Config{
		{DP: 2, TP: 2, TATP: 8},
		{DP: 4, TATP: 8},
		{TATP: 32},
		{DP: 2, TATP: 16},
		{DP: 8, TATP: 4},
	}
	for _, cfg := range cfgs {
		p, err := Place(cfg, topo)
		if err != nil {
			t.Fatalf("Place(%s): %v", cfg, err)
		}
		groups := p.Groups(TATP)
		wantGroups := cfg.Degree() / cfg.Normalize().TATP
		if len(groups) != wantGroups {
			t.Fatalf("%s: %d TATP groups, want %d", cfg, len(groups), wantGroups)
		}
		for _, g := range groups {
			if g.Rect == nil {
				t.Errorf("%s: TATP group %v not contiguous", cfg, g.Dies)
				continue
			}
			if g.Size() != cfg.Normalize().TATP {
				t.Errorf("%s: group size %d, want %d", cfg, g.Size(), cfg.Normalize().TATP)
			}
			// Ring-capable whenever the degree admits a 2×k block on
			// this wafer (all the even degrees ≥4 here do).
			if cfg.Normalize().TATP >= 4 && !g.Rect.HasRing() {
				t.Errorf("%s: TATP rect %+v not ring-capable", cfg, *g.Rect)
			}
		}
	}
}

func TestGroupsPartitionWafer(t *testing.T) {
	topo := topo4x8()
	cfg := Config{DP: 2, TP: 2, SP: 2, TATP: 2, CP: 2}
	p, err := Place(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		groups := p.Groups(s)
		seen := map[mesh.DieID]bool{}
		for _, g := range groups {
			if g.Strategy != s {
				t.Errorf("group strategy mismatch: %v in %v list", g.Strategy, s)
			}
			for _, d := range g.Dies {
				if seen[d] {
					t.Errorf("%v: die %d in two groups", s, d)
				}
				seen[d] = true
			}
		}
		if len(seen) != topo.Dies() {
			t.Errorf("%v groups cover %d dies, want %d", s, len(seen), topo.Dies())
		}
	}
}

func TestPlaceRejectsUnmappable(t *testing.T) {
	topo := topo4x8()
	// Degree mismatch.
	if _, err := Place(Config{DP: 3, TATP: 8}, topo); err == nil {
		t.Error("degree-24 config accepted on 32 dies")
	}
}

func TestChooseFactorPrefersRing(t *testing.T) {
	fh, fw, ok := chooseFactor(8, 4, 8, true)
	if !ok {
		t.Fatal("no factorization found")
	}
	r := mesh.Rect{R0: 0, C0: 0, R1: fh - 1, C1: fw - 1}
	if !r.HasRing() {
		t.Errorf("TATP factor %dx%d not ring-capable", fh, fw)
	}
}

func TestChooseFactorRespectsBounds(t *testing.T) {
	if _, _, ok := chooseFactor(64, 4, 8, true); ok {
		t.Error("factor exceeding grid accepted")
	}
	fh, fw, ok := chooseFactor(4, 4, 8, false)
	if !ok || fh*fw != 4 {
		t.Errorf("chooseFactor(4) = %d,%d,%v", fh, fw, ok)
	}
}

func TestEnumerateConfigs(t *testing.T) {
	cfgs := EnumerateConfigs(32, true, 0)
	if len(cfgs) == 0 {
		t.Fatal("no configs enumerated")
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if c.Degree() != 32 {
			t.Errorf("config %s degree %d", c, c.Degree())
		}
		if seen[c.String()] {
			t.Errorf("duplicate config %s", c)
		}
		seen[c.String()] = true
	}
	// Without TATP the list must only contain TATP=1 entries.
	for _, c := range EnumerateConfigs(32, false, 0) {
		if c.TATP > 1 {
			t.Errorf("TATP config %s in no-TATP enumeration", c)
		}
	}
	// Cap applies.
	for _, c := range EnumerateConfigs(32, true, 8) {
		if c.TATP > 8 {
			t.Errorf("config %s exceeds TATP cap", c)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{TATP: "TATP", TP: "TP", SP: "SP", CP: "CP", DP: "DP"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}
