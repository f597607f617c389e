package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
// including an infinity (the record value codec must round-trip every
// float exactly).
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

// storeRecord memoizes r as j's priced result in p and appends it to
// p's disk memo, as Sweep does with a fresh result.
func storeRecord(p *Pool, j Job, r Result) error {
	key := string(appendJobKey(nil, p.normalize(j)))
	if _, fresh := p.cache.publish(key, r, false); !fresh {
		return fmt.Errorf("job %+v stored twice", j.Model.Layers)
	}
	return p.cache.disk.Load().append(key, r)
}

// memoized returns j's memoized result in p without pricing it.
func memoized(p *Pool, j Job) (Result, bool) {
	return p.cache.lookup(appendJobKey(nil, p.normalize(j)))
}

// attach attaches a fresh pool to the memo in dir.
func attach(t *testing.T, dir string) (*Pool, *DiskMemo) {
	t.Helper()
	p := New(1)
	d, err := p.AttachDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func fileSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, diskMemoFile))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestDiskMemoRoundTrip: a cold attach serves every stored result
// bit-identically, including persisted errors, and counts each
// record's first lookup as a disk hit.
func TestDiskMemoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p1, d1 := attach(t, dir)
	const n = 8
	want := make([]Result, n)
	for i := 0; i < n; i++ {
		want[i] = diskResult(i)
		if i == 3 {
			want[i] = Result{Err: errors.New("cost: no viable placement for dp1")}
		}
		if err := storeRecord(p1, diskJob(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The storing pool serves them immediately.
	for i := 0; i < n; i++ {
		r, ok := memoized(p1, diskJob(i))
		if !ok || !sameResult(r, want[i]) {
			t.Fatalf("warm lookup %d: ok=%v r=%+v", i, ok, r)
		}
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, d2 := attach(t, dir)
	defer d2.Close()
	if s := p2.Cache().Stats(); s.DiskEntries != n || s.Entries != n || s.DiskDropped != 0 {
		t.Fatalf("reattach: %d disk entries, %d memo entries, %d dropped bytes; want %d, %d, 0",
			s.DiskEntries, s.Entries, s.DiskDropped, n, n)
	}
	for i := 0; i < n; i++ {
		r, ok := memoized(p2, diskJob(i))
		if !ok {
			t.Fatalf("cold lookup %d missing", i)
		}
		if !sameResult(r, want[i]) {
			t.Fatalf("cold lookup %d: got %+v want %+v", i, r, want[i])
		}
	}
	if _, ok := memoized(p2, diskJob(n+5)); ok {
		t.Fatal("lookup of never-stored job reported a hit")
	}
	if s := p2.Cache().Stats(); s.DiskHits != n || s.Hits != 0 {
		t.Fatalf("cold lookups counted %d disk hits and %d hits, want %d and 0", s.DiskHits, s.Hits, n)
	}
}

// TestDiskMemoCorruptTail: a torn or garbage tail drops only the
// records at and past the corruption, and the attach compacts the
// file so appends resume cleanly.
func TestDiskMemoCorruptTail(t *testing.T) {
	dir := t.TempDir()
	p1, d1 := attach(t, dir)
	for i := 0; i < 4; i++ {
		if err := storeRecord(p1, diskJob(i), diskResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	d1.Close()
	clean, err := os.ReadFile(d1.path)
	if err != nil {
		t.Fatal(err)
	}
	const tail = "garbage tail"
	if err := os.WriteFile(d1.path, append(clean, tail...), 0o644); err != nil {
		t.Fatal(err)
	}

	p2, d2 := attach(t, dir)
	if s := p2.Cache().Stats(); s.DiskEntries != 4 || s.DiskDropped != len(tail) {
		t.Fatalf("recovered %d records, dropped %d; want 4 records and the %d-byte tail",
			s.DiskEntries, s.DiskDropped, len(tail))
	}
	// The compaction must have restored the exact clean prefix, so a
	// post-recovery append is readable by the next attach.
	if err := storeRecord(p2, diskJob(9), diskResult(9)); err != nil {
		t.Fatal(err)
	}
	if s := p2.Cache().Stats(); s.DiskEntries != 5 {
		t.Fatalf("%d disk entries after an append, want 5", s.DiskEntries)
	}
	d2.Close()
	p3, d3 := attach(t, dir)
	defer d3.Close()
	if s := p3.Cache().Stats(); s.DiskEntries != 5 || s.DiskDropped != 0 {
		t.Fatalf("post-compaction attach recovered %d/%d; want 5 records, 0 dropped", s.DiskEntries, s.DiskDropped)
	}
	for _, i := range []int{0, 1, 2, 3, 9} {
		if r, ok := memoized(p3, diskJob(i)); !ok || !sameResult(r, diskResult(i)) {
			t.Fatalf("record %d lost after compaction (ok=%v)", i, ok)
		}
	}
}

// TestDiskMemoCorruptHeader: a file from another schema (or plain
// garbage) is ignored wholesale rather than misread. The previous
// version stored each value as a gob stream under the same keys, so
// only its header keeps its records from being misread.
func TestDiskMemoCorruptHeader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte)
	}{
		{"magic", func(data []byte) { data[0] ^= 0xff }},
		{"previous version", func(data []byte) { data[len(diskMemoMagic)] = diskMemoVersion - 1 }},
	} {
		dir := t.TempDir()
		p1, d1 := attach(t, dir)
		if err := storeRecord(p1, diskJob(0), diskResult(0)); err != nil {
			t.Fatal(err)
		}
		d1.Close()
		data, _ := os.ReadFile(d1.path)
		tc.corrupt(data)
		os.WriteFile(d1.path, data, 0o644)

		p2, d2 := attach(t, dir)
		s := p2.Cache().Stats()
		if s.Entries != 0 || s.DiskEntries != 0 {
			t.Errorf("%s: foreign-header file yielded %d memo entries and %d disk entries, want 0",
				tc.name, s.Entries, s.DiskEntries)
		}
		if s.DiskDropped != len(data) {
			t.Errorf("%s: dropped %d bytes, want the whole %d-byte file", tc.name, s.DiskDropped, len(data))
		}
		d2.Close()
	}
}

// TestDiskMemoConcurrentWriters: two pools attached to one directory
// (two processes in miniature) appending concurrently interleave
// whole records — a cold attach recovers every record from both.
func TestDiskMemoConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	pa, a := attach(t, dir)
	pb, b := attach(t, dir)
	const per = 32
	var wg sync.WaitGroup
	for _, w := range []struct {
		p     *Pool
		first int
	}{{pa, 0}, {pb, per}} {
		wg.Add(1)
		go func(p *Pool, first int) {
			defer wg.Done()
			for i := first; i < first+per; i++ {
				if err := storeRecord(p, diskJob(i), diskResult(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w.p, w.first)
	}
	wg.Wait()
	a.Close()
	b.Close()

	p, d := attach(t, dir)
	defer d.Close()
	if s := p.Cache().Stats(); s.DiskEntries != 2*per || s.DiskDropped != 0 {
		t.Fatalf("recovered %d records, dropped %d; want %d, 0", s.DiskEntries, s.DiskDropped, 2*per)
	}
	for i := 0; i < 2*per; i++ {
		if r, ok := memoized(p, diskJob(i)); !ok || !sameResult(r, diskResult(i)) {
			t.Fatalf("record %d lost in concurrent append (ok=%v)", i, ok)
		}
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
	d1, err := p1.AttachDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := p1.Sweep(jobs)
	s1 := p1.Cache().Stats()
	if s1.Misses == 0 || s1.DiskHits != 0 {
		t.Fatalf("cold pass: %+v", s1)
	}
	d1.Close()

	p2 := New(4)
	d2, err := p2.AttachDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
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
	d3, err := p3.AttachDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
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

// TestDiskHitsCountOncePerRecord races lookups that the disk memo
// serves: every record's first lookup counts one disk hit however many
// goroutines reach it at once, and every other lookup counts a hit.
func TestDiskHitsCountOncePerRecord(t *testing.T) {
	dir := t.TempDir()
	const records, goroutines, sweeps = 16, 8, 64
	jobs := make([]Job, records)
	p0, d0 := attach(t, dir)
	for i := range jobs {
		jobs[i] = diskJob(i)
		if err := storeRecord(p0, jobs[i], diskResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	d0.Close()

	p, d := attach(t, dir)
	defer d.Close()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < sweeps; k++ {
				for i, r := range p.Sweep(jobs) {
					if !sameResult(r, diskResult(i)) {
						t.Errorf("job %d: result differs from its record", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	s := p.Cache().Stats()
	if s.DiskHits != records || s.Misses != 0 {
		t.Errorf("%d disk hits and %d misses, want %d and 0", s.DiskHits, s.Misses, records)
	}
	if s.Hits+s.DiskHits != goroutines*sweeps*records {
		t.Errorf("hits %d + disk hits %d, want %d lookups", s.Hits, s.DiskHits, goroutines*sweeps*records)
	}
}

// TestDiskMemoAutoCompaction: when concurrent writers leave more dead
// duplicate records than live ones, the next attach compacts the file
// and preserves every live record; below the threshold it leaves the
// file alone.
func TestDiskMemoAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	const n = 40 // live records; 3 pools write each => 120 total, 40 live

	// Three pools attached to the same dir (all before any write, as
	// racing worker processes would), each appending the same n
	// records: a pool dedupes only against its own memo, which holds
	// what was on disk when it attached, so the file accumulates 3n
	// records of which n are live.
	pools := make([]*Pool, 3)
	memos := make([]*DiskMemo, 3)
	for h := range pools {
		pools[h], memos[h] = attach(t, dir)
	}
	for h, p := range pools {
		for i := 0; i < n; i++ {
			if err := storeRecord(p, diskJob(i), diskResult(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := memos[h].Close(); err != nil {
			t.Fatal(err)
		}
	}

	before := fileSize(t, dir)
	p, d := attach(t, dir)
	defer d.Close()
	// 120 parsed, 40 live: 2*40 < 120 triggers compaction.
	s := p.Cache().Stats()
	if s.DiskCompacted != 2*n {
		t.Fatalf("compacted %d records, want %d", s.DiskCompacted, 2*n)
	}
	if s.DiskEntries != n || s.Entries != n || s.DiskDropped != 0 {
		t.Fatalf("after compaction: %d disk entries, %d memo entries, %d dropped; want %d, %d, 0",
			s.DiskEntries, s.Entries, s.DiskDropped, n, n)
	}
	after := fileSize(t, dir)
	if after >= before {
		t.Fatalf("compaction did not shrink the file: %d -> %d bytes", before, after)
	}
	// Every live record survived, bit-identical.
	for i := 0; i < n; i++ {
		r, ok := memoized(p, diskJob(i))
		if !ok {
			t.Fatalf("record %d lost by compaction", i)
		}
		if !sameResult(r, diskResult(i)) {
			t.Fatalf("record %d corrupted by compaction", i)
		}
	}

	// The compacted file is clean: a further attach parses exactly the
	// live records and compacts nothing.
	p2, d2 := attach(t, dir)
	defer d2.Close()
	if s := p2.Cache().Stats(); s.DiskCompacted != 0 || s.DiskEntries != n {
		t.Fatalf("reattach after compaction: compacted %d more, %d disk entries; want 0, %d",
			s.DiskCompacted, s.DiskEntries, n)
	}
	if got := fileSize(t, dir); got != after {
		t.Fatalf("reattach rewrote the compacted file: %d -> %d bytes", after, got)
	}
}

// TestDiskMemoCompactionThreshold: duplicate ratios at or above 1/2
// live leave the file untouched (strict threshold), and files under
// the minimum record count never compact.
func TestDiskMemoCompactionThreshold(t *testing.T) {
	// Exactly half live (two attached pools, same records): 80 total,
	// 40 live — 2*40 < 80 is false, so no compaction.
	dir := t.TempDir()
	const n = 40
	pa, ha := attach(t, dir)
	pb, hb := attach(t, dir)
	for h, p := range []*Pool{pa, pb} {
		for i := 0; i < n; i++ {
			if err := storeRecord(p, diskJob(i), diskResult(i)); err != nil {
				t.Fatal(err)
			}
		}
		[]*DiskMemo{ha, hb}[h].Close()
	}
	before := fileSize(t, dir)
	p, m := attach(t, dir)
	if s := p.Cache().Stats(); s.DiskCompacted != 0 || s.DiskEntries != n {
		t.Fatalf("at exactly-half live ratio: compacted %d, %d disk entries; want 0, %d", s.DiskCompacted, s.DiskEntries, n)
	}
	if got := fileSize(t, dir); got != before {
		t.Fatalf("at exactly-half live ratio the file changed: %d -> %d bytes", before, got)
	}
	m.Close()

	// Tiny file, terrible ratio (4 total, 1 live) but under the
	// 64-record floor: no compaction.
	dir2 := t.TempDir()
	tiny := make([]*Pool, 4)
	memos := make([]*DiskMemo, 4)
	for h := range tiny {
		tiny[h], memos[h] = attach(t, dir2)
	}
	for h, p := range tiny {
		if err := storeRecord(p, diskJob(0), diskResult(0)); err != nil {
			t.Fatal(err)
		}
		memos[h].Close()
	}
	before = fileSize(t, dir2)
	p2, m2 := attach(t, dir2)
	defer m2.Close()
	if s := p2.Cache().Stats(); s.DiskCompacted != 0 || s.DiskEntries != 1 {
		t.Fatalf("under the minimum-record floor: compacted %d, %d disk entries; want 0, 1", s.DiskCompacted, s.DiskEntries)
	}
	if got := fileSize(t, dir2); got != before {
		t.Fatalf("under the minimum-record floor the file changed: %d -> %d bytes", before, got)
	}
}

// TestResultRecordCoversEveryField pins the record value layout to
// cost.Breakdown as TestJobKeyCoversEveryField pins the key to Job:
// perturbing any leaf field of the Breakdown (or of a struct nested in
// it), or the persisted error, must change the encoded value, and every
// perturbed value must decode to itself bit for bit, with NaN, ±Inf and
// −0 in every float field too. TCME.Phase is the one exemption:
// pricing never sets it, so it is not stored. A field added to
// Breakdown, MemoryBreakdown, parallel.Config or tcme.Result without
// extending appendResult fails here instead of being dropped on disk.
func TestResultRecordCoversEveryField(t *testing.T) {
	base, err := New(1).EvaluateJob(testJobs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	baseVal := string(appendResult(nil, Result{Breakdown: base}))

	var paths [][]int
	var names []string
	for _, path := range keyLeafPaths(reflect.TypeOf(base), nil) {
		name := ""
		tt := reflect.TypeOf(base)
		for _, i := range path {
			name += "." + tt.Field(i).Name
			tt = tt.Field(i).Type
		}
		if strings.HasPrefix(name, ".TCME.Phase.") {
			continue
		}
		paths = append(paths, path)
		names = append(names, name)
	}
	if len(paths) < 30 {
		t.Fatalf("leaf walk found only %d fields — walker broken?", len(paths))
	}

	// roundTrip checks that r decodes from its encoding bit for bit and
	// re-encodes to the same bytes.
	roundTrip := func(what string, r Result) {
		t.Helper()
		val := appendResult(nil, r)
		got, ok := decodeResult(val)
		if !ok {
			t.Errorf("%s: the decoder rejects its own encoding", what)
			return
		}
		if !bytes.Equal(appendResult(nil, got), val) {
			t.Errorf("%s: the decoded value re-encodes differently", what)
		}
		gb, rb := reflect.ValueOf(got.Breakdown), reflect.ValueOf(r.Breakdown)
		for k, path := range paths {
			x, y := gb.FieldByIndex(path), rb.FieldByIndex(path)
			same := x.Interface() == y.Interface()
			if x.Kind() == reflect.Float64 {
				same = math.Float64bits(x.Float()) == math.Float64bits(y.Float())
			}
			if !same {
				t.Errorf("%s: Breakdown%s decodes to %v, want %v", what, names[k], x, y)
			}
		}
		if !reflect.DeepEqual(got.Breakdown.TCME.Phase, base.TCME.Phase) {
			t.Errorf("%s: TCME.Phase decodes to %+v, want the empty phase", what, got.Breakdown.TCME.Phase)
		}
		if (got.Err == nil) != (r.Err == nil) || got.Err != nil && got.Err.Error() != r.Err.Error() {
			t.Errorf("%s: error decodes to %v, want %v", what, got.Err, r.Err)
		}
	}

	roundTrip("priced result", Result{Breakdown: base})
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for k, path := range paths {
		cp := base
		leaf := reflect.ValueOf(&cp).Elem().FieldByIndex(path)
		perturb(leaf)
		if string(appendResult(nil, Result{Breakdown: cp})) == baseVal {
			t.Errorf("perturbing Breakdown%s does not change the stored value", names[k])
		}
		roundTrip("perturbed Breakdown"+names[k], Result{Breakdown: cp})
		if leaf.Kind() == reflect.Float64 {
			for _, v := range specials {
				leaf.SetFloat(v)
				roundTrip(fmt.Sprintf("Breakdown%s = %v", names[k], v), Result{Breakdown: cp})
			}
		}
	}

	// The persisted error: its presence and its text are both stored.
	vals := map[string]string{"no error": baseVal}
	for _, msg := range []string{"", "cost: no viable placement", "cost: no viable placement\x01"} {
		r := Result{Breakdown: base, Err: errors.New(msg)}
		what := fmt.Sprintf("error %q", msg)
		val := string(appendResult(nil, r))
		for prev, pv := range vals {
			if pv == val {
				t.Errorf("%s and %s store the same value", what, prev)
			}
		}
		vals[what] = val
		roundTrip(what, r)
	}
}

// TestDiskMemoAppendAllocs pins the append path, which serve's fresh
// requests run for every job they price: each frame is encoded into
// the memo's one reused buffer, so an append allocates nothing.
func TestDiskMemoAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the append path")
	}
	_, d := attach(t, t.TempDir())
	defer d.Close()
	key := string(appendJobKey(nil, diskJob(0)))
	for what, r := range map[string]Result{
		"a priced result":   diskResult(1),
		"a persisted error": {Err: errors.New("cost: no viable placement")},
	} {
		avg := testing.AllocsPerRun(100, func() {
			if err := d.append(key, r); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("appending %s allocates %.1f objects/op, want 0", what, avg)
		}
	}
}
