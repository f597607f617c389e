package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// diskJob fabricates a distinct normalized job.
func diskJob(i int) Job {
	j := Job{
		Model:  model.GPT3_6_7B(),
		Wafer:  hw.EvaluationWafer(),
		Config: parallel.Config{DP: 1, TP: 1, SP: 1, CP: 1, TATP: 1, PP: 1},
		Opts:   cost.TEMPOptions(),
	}
	j.Model.Layers += i
	return j
}

// diskResult fabricates a result with distinctive bit patterns,
// including an infinity (gob must round-trip every float exactly).
func diskResult(i int) Result {
	var b cost.Breakdown
	b.Model = fmt.Sprintf("m-%d", i)
	b.StepTime = 0.1 * float64(i)
	b.ComputeTime = math.Inf(1)
	b.Memory.Weights = 1.0 / float64(i+3)
	b.ThroughputTokens = float64(i) * 1e9
	return Result{Breakdown: b}
}

func sameResult(a, b Result) bool {
	if !reflect.DeepEqual(a.Breakdown, b.Breakdown) {
		return false
	}
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	return a.Err == nil || a.Err.Error() == b.Err.Error()
}

// TestDiskMemoRoundTrip: a cold reopen serves every stored result
// bit-identically, including persisted errors.
func TestDiskMemoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	want := make([]Result, n)
	for i := 0; i < n; i++ {
		want[i] = diskResult(i)
		if i == 3 {
			want[i] = Result{Err: errors.New("cost: no viable placement for dp1")}
		}
		if err := m1.Store(diskJob(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Same-handle lookups hit immediately.
	for i := 0; i < n; i++ {
		r, ok := m1.Lookup(diskJob(i))
		if !ok || !sameResult(r, want[i]) {
			t.Fatalf("warm lookup %d: ok=%v r=%+v", i, ok, r)
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec, dropped := m2.Recovered(); rec != n || dropped != 0 {
		t.Fatalf("reopen recovered %d records, dropped %d bytes; want %d, 0", rec, dropped, n)
	}
	for i := 0; i < n; i++ {
		r, ok := m2.Lookup(diskJob(i))
		if !ok {
			t.Fatalf("cold lookup %d missing", i)
		}
		if !sameResult(r, want[i]) {
			t.Fatalf("cold lookup %d: got %+v want %+v", i, r, want[i])
		}
	}
	if _, ok := m2.Lookup(diskJob(n + 5)); ok {
		t.Fatal("lookup of never-stored job reported a hit")
	}
}

// TestDiskMemoCorruptTail: a torn or garbage tail drops only the
// records at and past the corruption, and the reopen compacts the
// file so appends resume cleanly.
func TestDiskMemoCorruptTail(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m1.Store(diskJob(i), diskResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	m1.Close()
	path := m1.Path()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, "garbage tail"...), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, dropped := m2.Recovered(); rec != 4 || dropped == 0 {
		t.Fatalf("recovered %d records, dropped %d; want 4 records and a dropped tail", rec, dropped)
	}
	// The compaction must have restored the exact clean prefix, so a
	// post-recovery append is readable by the next open.
	if err := m2.Store(diskJob(9), diskResult(9)); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rec, dropped := m3.Recovered(); rec != 5 || dropped != 0 {
		t.Fatalf("post-compaction open recovered %d/%d; want 5 records, 0 dropped", rec, dropped)
	}
	for _, i := range []int{0, 1, 2, 3, 9} {
		if r, ok := m3.Lookup(diskJob(i)); !ok || !sameResult(r, diskResult(i)) {
			t.Fatalf("record %d lost after compaction (ok=%v)", i, ok)
		}
	}
}

// TestDiskMemoCorruptHeader: a file from another schema (or plain
// garbage) is ignored wholesale rather than misread. The previous
// version's keys also encode three TCME option fields (an iteration
// cap and two ablation switches) that the current key layout drops, so
// they do not spell any current job's key.
func TestDiskMemoCorruptHeader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte)
	}{
		{"magic", func(data []byte) { data[0] ^= 0xff }},
		{"previous version", func(data []byte) { data[len(diskMemoMagic)] = diskMemoVersion - 1 }},
	} {
		dir := t.TempDir()
		m1, err := OpenDiskMemo(dir)
		if err != nil {
			t.Fatal(err)
		}
		m1.Store(diskJob(0), diskResult(0))
		m1.Close()
		data, _ := os.ReadFile(m1.Path())
		tc.corrupt(data)
		os.WriteFile(m1.Path(), data, 0o644)

		m2, err := OpenDiskMemo(dir)
		if err != nil {
			t.Fatal(err)
		}
		if m2.Len() != 0 {
			t.Errorf("%s: foreign-header file yielded %d records, want 0", tc.name, m2.Len())
		}
		if _, dropped := m2.Recovered(); dropped != len(data) {
			t.Errorf("%s: dropped %d bytes, want the whole %d-byte file", tc.name, dropped, len(data))
		}
		m2.Close()
	}
}

// TestDiskMemoConcurrentWriters: two handles on one directory (two
// processes in miniature) appending concurrently interleave whole
// records — a cold open recovers every record from both.
func TestDiskMemoConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	const per = 32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			a.Store(diskJob(i), diskResult(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := per; i < 2*per; i++ {
			b.Store(diskJob(i), diskResult(i))
		}
	}()
	wg.Wait()
	a.Close()
	b.Close()

	m, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rec, dropped := m.Recovered(); rec != 2*per || dropped != 0 {
		t.Fatalf("recovered %d records, dropped %d; want %d, 0", rec, dropped, 2*per)
	}
	for i := 0; i < 2*per; i++ {
		if r, ok := m.Lookup(diskJob(i)); !ok || !sameResult(r, diskResult(i)) {
			t.Fatalf("record %d lost in concurrent append (ok=%v)", i, ok)
		}
	}
}

// TestDiskMemoLookupZeroAllocs pins the warm hit path: a lookup on a
// loaded memo must not allocate.
func TestDiskMemoLookupZeroAllocs(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j := diskJob(1)
	m.Store(j, diskResult(1))
	m.Lookup(j) // warm the key buffer
	avg := testing.AllocsPerRun(100, func() {
		if _, ok := m.Lookup(j); !ok {
			t.Fatal("lookup missed")
		}
	})
	if avg != 0 {
		t.Errorf("disk-memo hit allocates %.1f objects/op, want 0", avg)
	}
}

// TestPoolWarmStartsFromDiskMemo is the end-to-end two-pass contract:
// a second process (fresh pool, fresh in-memory cache) on the same
// memo directory re-prices nothing and reproduces the first pass
// bit-identically.
func TestPoolWarmStartsFromDiskMemo(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(t)

	p1 := New(4)
	d1, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1.SetDiskMemo(d1)
	r1 := p1.Sweep(jobs)
	s1 := p1.Cache().Stats()
	if s1.Misses == 0 || s1.DiskHits != 0 {
		t.Fatalf("cold pass: %+v", s1)
	}
	d1.Close()

	p2 := New(4)
	d2, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	p2.SetDiskMemo(d2)
	r2 := p2.Sweep(jobs)
	s2 := p2.Cache().Stats()
	if s2.Misses != 0 {
		t.Errorf("warm pass re-priced %d jobs, want 0 exact evaluations", s2.Misses)
	}
	if s2.DiskHits != s1.Misses {
		t.Errorf("warm pass disk hits %d, want %d (one per cold miss)", s2.DiskHits, s1.Misses)
	}
	for i := range r1 {
		if !sameResult(r1[i], r2[i]) {
			t.Fatalf("job %d: warm result differs from cold\ncold: %+v\nwarm: %+v", i, r1[i], r2[i])
		}
	}

	// Single-job evaluations warm-start too.
	p3 := New(2)
	p3.SetDiskMemo(d2)
	b, err := p3.EvaluateJob(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, r1[0].Breakdown) {
		t.Error("single evaluate from disk differs from cold sweep result")
	}
	if s3 := p3.Cache().Stats(); s3.Misses != 0 || s3.DiskHits != 1 {
		t.Errorf("single evaluate: %+v, want 0 misses / 1 disk hit", s3)
	}
}

// TestDiskMemoAutoCompaction: when concurrent writers leave more dead
// duplicate records than live ones, the next open compacts the file
// and preserves every live record; below the threshold it leaves the
// file alone.
func TestDiskMemoAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	const n = 40 // live records; 3 handles write each => 120 total, 40 live

	// Three concurrent handles on the same dir (all opened before any
	// write, as racing worker processes would), each appending the
	// same n records: a handle dedupes only against its own index plus
	// what was on disk when it opened, so the file accumulates 3n
	// records of which n are live.
	handles := make([]*DiskMemo, 3)
	for h := range handles {
		m, err := OpenDiskMemo(dir)
		if err != nil {
			t.Fatal(err)
		}
		handles[h] = m
	}
	for _, m := range handles {
		for i := 0; i < n; i++ {
			if err := m.Store(diskJob(i), diskResult(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	before, err := os.Stat(fmt.Sprintf("%s/costmemo.bin", dir))
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// 120 parsed, 40 live: 2*40 < 120 triggers compaction.
	if got := m.Compacted(); got != 2*n {
		t.Fatalf("Compacted() = %d, want %d", got, 2*n)
	}
	if m.Len() != n {
		t.Fatalf("Len() = %d after compaction, want %d", m.Len(), n)
	}
	rec, dropped := m.Recovered()
	if rec != n || dropped != 0 {
		t.Fatalf("Recovered() = (%d, %d), want (%d, 0)", rec, dropped, n)
	}
	after, err := os.Stat(m.Path())
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the file: %d -> %d bytes", before.Size(), after.Size())
	}
	// Every live record survived, bit-identical.
	for i := 0; i < n; i++ {
		r, ok := m.Lookup(diskJob(i))
		if !ok {
			t.Fatalf("record %d lost by compaction", i)
		}
		if !sameResult(r, diskResult(i)) {
			t.Fatalf("record %d corrupted by compaction", i)
		}
	}

	// The compacted file is clean: a further reopen parses exactly the
	// live records and compacts nothing.
	m2, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if c := m2.Compacted(); c != 0 {
		t.Fatalf("reopen after compaction compacted %d more records", c)
	}
	if rec, _ := m2.Recovered(); rec != n {
		t.Fatalf("reopen recovered %d records, want %d", rec, n)
	}
}

// TestDiskMemoCompactionThreshold: duplicate ratios at or above 1/2
// live leave the file untouched (strict threshold), and files under
// the minimum record count never compact.
func TestDiskMemoCompactionThreshold(t *testing.T) {
	// Exactly half live (two concurrent handles, same records): 80
	// total, 40 live — 2*40 < 80 is false, so no compaction.
	dir := t.TempDir()
	const n = 40
	ha, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*DiskMemo{ha, hb} {
		for i := 0; i < n; i++ {
			if err := m.Store(diskJob(i), diskResult(i)); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
	}
	m, err := OpenDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Compacted(); c != 0 {
		t.Fatalf("compacted %d records at exactly-half live ratio", c)
	}
	if rec, _ := m.Recovered(); rec != 2*n {
		t.Fatalf("recovered %d, want %d", rec, 2*n)
	}
	m.Close()

	// Tiny file, terrible ratio (4 total, 1 live) but under the
	// 64-record floor: no compaction.
	dir2 := t.TempDir()
	tiny := make([]*DiskMemo, 4)
	for h := range tiny {
		if tiny[h], err = OpenDiskMemo(dir2); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range tiny {
		if err := m.Store(diskJob(0), diskResult(0)); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
	m2, err := OpenDiskMemo(dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if c := m2.Compacted(); c != 0 {
		t.Fatalf("compacted %d records under the minimum-record floor", c)
	}
}
