package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/spec"
)

// workerEnv makes the test binary serve fabric shards over stdio when
// a Config spawns it as a worker (it re-invokes its own executable).
const workerEnv = "TEMP_CLI_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := distrib.ServeStdio(); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// TestSharedFlagNames: the harness declares exactly the flag names the
// commands declared before it existed, with the same defaults.
func TestSharedFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var c Config
	c.Register(fs)
	if got, want := flagNames(fs), []string{"distribute", "memo-dir", "worker-mode", "workers"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Register flags %v, want %v", got, want)
	}

	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	c = Config{Model: "gpt3-6.7b", Strategy: "ga"}
	c.RegisterBatch(fs)
	want := []string{
		"backend", "budget", "distribute", "fault-campaign",
		"list-backends", "list-models", "list-strategies", "list-wafers",
		"memo-dir", "model", "repair", "scenario", "scenarios", "seed",
		"strategy", "wafer", "worker-mode", "workers",
	}
	if got := flagNames(fs); !reflect.DeepEqual(got, want) {
		t.Errorf("RegisterBatch flags %v, want %v", got, want)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Model != "gpt3-6.7b" || c.Strategy != "ga" || c.Seed != 7 || c.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("defaults: model %q strategy %q seed %d workers %d", c.Model, c.Strategy, c.Seed, c.Workers)
	}
}

// writeSpecs writes raw scenario JSON files into a fresh directory.
func writeSpecs(t *testing.T, raw map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range raw {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestInvalidOverridesFailBeforeRunning: a bad -strategy, -budget or
// -backend is an error before any scenario prices anything.
func TestInvalidOverridesFailBeforeRunning(t *testing.T) {
	dir := writeSpecs(t, map[string]string{
		"a.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8}}`,
	})
	for _, bad := range []Config{
		{Strategy: "no-such-strategy"},
		{Budget: "-5"},
		{Backend: "no-such-backend"},
	} {
		c := bad
		c.Scenarios, c.Ctx = dir, context.Background()
		specs, err := c.Specs()
		if err != nil {
			t.Fatal(err)
		}
		before := engine.CountersSnapshot()
		results, err := c.RunSpecs(specs)
		if err == nil || results != nil {
			t.Errorf("%+v: got %d results, err %v; want an error and no results", bad, len(results), err)
		}
		if after := engine.CountersSnapshot(); after.Hits != before.Hits || after.Misses != before.Misses {
			t.Errorf("%+v: a scenario ran before the override failed", bad)
		}
	}
}

// TestFaultCampaignArray: a two-scenario batch with campaign stages
// writes one artifact entry per scenario, in spec order.
func TestFaultCampaignArray(t *testing.T) {
	grid := `"fault":{"campaign":{"link_rates":[0,0.2],"core_rates":[0],"trials":2}}`
	dir := writeSpecs(t, map[string]string{
		"a.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8},` + grid + `}`,
		"b.json": `{"model":"llama2-7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8},` + grid + `}`,
	})
	out := filepath.Join(t.TempDir(), "campaign.json")
	c := Config{Scenarios: dir, FaultCampaign: out, Ctx: context.Background()}
	specs, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var crs []fault.CampaignResult
	if err := json.Unmarshal(buf, &crs); err != nil {
		t.Fatal(err)
	}
	if len(crs) != 2 || crs[0].Model != "GPT-3 6.7B" || crs[1].Model != "Llama2 7B" {
		t.Fatalf("campaign artifact has %d entries, want the two scenarios' in spec order: %+v", len(crs), crs)
	}
}

// TestSpecsAttachResilience: -repair rides an existing fault stage
// only; -fault-campaign adds a campaign everywhere, keeping a declared
// one.
func TestSpecsAttachResilience(t *testing.T) {
	dir := writeSpecs(t, map[string]string{
		"a.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8"}`,
		"b.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8","fault":{"link_rate":0.1,"campaign":{"trials":3}}}`,
	})
	c := Config{Scenarios: dir, Repair: true, FaultCampaign: "out.json"}
	specs, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	a, b := specs[0].Fault, specs[1].Fault
	if a == nil || a.Repair != nil || a.Campaign == nil || a.LinkRate != 0 {
		t.Errorf("fault-free spec: got %+v, want an empty fault stage carrying only a campaign", a)
	}
	if b.Repair == nil || b.Campaign == nil || b.Campaign.Trials != 3 {
		t.Errorf("faulted spec: got %+v, want repair attached and the declared campaign kept", b)
	}
	if specs, _ := (&Config{Scenarios: dir}).Specs(); specs[0].Fault != nil || specs[1].Fault.Repair != nil {
		t.Error("stages attached without -repair/-fault-campaign")
	}
}

// TestFabricPrecedence table-tests the one fabric policy: -distribute
// wins over the first spec distrib block, which wins over in-process;
// flags win over spec fields.
func TestFabricPrecedence(t *testing.T) {
	block := func(d spec.DistribSpec) spec.ScenarioSpec { return spec.ScenarioSpec{Distrib: &d} }
	chaos := &distrib.ChaosConfig{Seed: 1}
	for _, tc := range []struct {
		name  string
		c     Config
		specs []spec.ScenarioSpec
		want  distrib.Options
	}{
		{"in-process by default", Config{}, nil, distrib.Options{}},
		{"flag alone", Config{Distribute: 3}, nil, distrib.Options{Workers: 3}},
		{"spec block alone", Config{},
			[]spec.ScenarioSpec{{}, block(spec.DistribSpec{Workers: 5, ShardSize: 2, Retries: 4, HeartbeatMS: 250, MissedBeats: 6, SyncMemo: true})},
			distrib.Options{Workers: 5, ShardSize: 2, Retries: 4, Heartbeat: 250 * time.Millisecond, MissedBeats: 6, SyncMemo: true}},
		{"flag wins over spec workers", Config{Distribute: 2},
			[]spec.ScenarioSpec{block(spec.DistribSpec{Workers: 5, ShardSize: 2})},
			distrib.Options{Workers: 2, ShardSize: 2}},
		{"first block wins", Config{},
			[]spec.ScenarioSpec{block(spec.DistribSpec{Workers: 1}), block(spec.DistribSpec{Workers: 7, ShardSize: 9})},
			distrib.Options{Workers: 1}},
		{"heartbeat flag wins", Config{Heartbeat: time.Second},
			[]spec.ScenarioSpec{block(spec.DistribSpec{Workers: 1, HeartbeatMS: 250})},
			distrib.Options{Workers: 1, Heartbeat: time.Second}},
		{"sync-memo flag survives a block without it", Config{SyncMemo: true},
			[]spec.ScenarioSpec{block(spec.DistribSpec{Workers: 1})},
			distrib.Options{Workers: 1, SyncMemo: true}},
		{"tcp and chaos flags pass through", Config{Distribute: 2, Listen: ":0", Chaos: chaos}, nil,
			distrib.Options{Workers: 2, Listen: ":0", Chaos: chaos}},
	} {
		if got := tc.c.fabricOptions(tc.specs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestWorkerArgv table-tests how a coordinator re-invokes itself as a
// worker.
func TestWorkerArgv(t *testing.T) {
	for _, tc := range []struct {
		name     string
		c        Config
		syncMemo bool
		want     []string
	}{
		{"bare", Config{Workers: 4}, false, []string{"bin", "-worker-mode", "-workers", "4"}},
		{"shared memo", Config{Workers: 2, MemoDir: "m"}, false,
			[]string{"bin", "-worker-mode", "-workers", "2", "-memo-dir", "m"}},
		{"synced memo stays off the argv", Config{Workers: 2, MemoDir: "m"}, true,
			[]string{"bin", "-worker-mode", "-workers", "2"}},
		{"process-level overrides", Config{Workers: 1, Model: "a,b", Wafer: "w", Backend: "replay"}, false,
			[]string{"bin", "-worker-mode", "-workers", "1", "-model", "a,b", "-wafer", "w", "-backend", "replay"}},
	} {
		if got := tc.c.workerArgv("bin", tc.syncMemo); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFailClosesMemoAndFabric: the fail path detaches and closes the
// disk memo and shuts the fabric down — collecting its worker's
// counters — before exiting 1.
func TestFailClosesMemoAndFabric(t *testing.T) {
	t.Setenv(workerEnv, "1")
	code := -1
	exit = func(c int) { code = c }
	defer func() { exit = os.Exit }()

	c := Config{Name: "test", Workers: 1, MemoDir: t.TempDir(), Distribute: 1}
	if c.Setup() {
		t.Fatal("Setup finished the run without worker mode or a listing")
	}
	if !engine.HasDiskMemo() {
		t.Fatal("Setup did not attach the disk memo")
	}
	fab := c.Fabric(nil)
	if fab.Live() != 1 {
		t.Fatalf("fabric has %d live workers, want 1", fab.Live())
	}
	c.Fail(errors.New("boom"))
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if engine.HasDiskMemo() {
		t.Error("disk memo still attached after Fail")
	}
	if fab.Live() != 0 {
		t.Errorf("fabric still has %d live workers after Fail", fab.Live())
	}
	if st := fab.Shutdown(); st.Spawned != 1 || len(st.Workers) != 1 {
		t.Errorf("shutdown stats %+v, want the one worker's counters", st)
	}
	if c.Ctx.Err() == nil {
		t.Error("signal context still live after Fail")
	}
}
