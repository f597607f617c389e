package engine

import (
	"os"
	"strings"
	"testing"
)

// segmentOf attaches a pool to a fresh memo directory, stores the
// diskJob/diskResult fixtures 0..n-1 and returns the memo's segment.
func segmentOf(t testing.TB, dir string, n int) []byte {
	t.Helper()
	p := New(1)
	d, err := p.AttachDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < n; i++ {
		if err := storeRecord(p, diskJob(i), diskResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	seg, records := d.segment()
	if records != n {
		t.Fatalf("segment holds %d records, want %d", records, n)
	}
	return seg
}

// TestMemoSegmentRoundTrip: a memo file's segment carries every record
// bit-identically into a shared-nothing pool, marked as loaded from
// disk; existing keys keep their local value, the import is
// idempotent, and a torn tail on the file stays out of the segment.
func TestMemoSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	seg := segmentOf(t, dir, n)

	dst := New(1)
	// Pre-seed one key with a local value: import must not clobber it.
	local := diskResult(99)
	dst.cache.publish(string(appendJobKey(nil, dst.normalize(diskJob(0)))), local, false)
	added, err := dst.importSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if added != n-1 {
		t.Fatalf("imported %d records, want %d (one key pre-seeded)", added, n-1)
	}
	for i := 0; i < n; i++ {
		got, ok := memoized(dst, diskJob(i))
		if !ok {
			t.Fatalf("job %d missing after import", i)
		}
		want := diskResult(i)
		if i == 0 {
			want = local
		}
		if !sameResult(got, want) {
			t.Fatalf("job %d: result diverged after segment import", i)
		}
	}
	if s := dst.Cache().Stats(); s.DiskHits != n-1 || s.Hits != 1 || s.DiskEntries != 0 {
		t.Fatalf("imported lookups: %d disk hits, %d hits, %d disk entries; want %d, 1, 0",
			s.DiskHits, s.Hits, s.DiskEntries, n-1)
	}
	// Idempotent: re-importing the same segment adds nothing.
	if again, err := dst.importSegment(seg); err != nil || again != 0 {
		t.Fatalf("re-import added %d records (err %v), want 0", again, err)
	}

	// A record torn mid-append is past the segment's valid prefix.
	p := New(1)
	d, err := p.AttachDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f, err := os.OpenFile(d.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(seg[len(headerBytes()) : len(headerBytes())+20]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, records := d.segment()
	if records != n || string(torn) != string(seg) {
		t.Fatalf("segment of a torn file: %d records, %d bytes; want %d, %d", records, len(torn), n, len(seg))
	}
}

// TestMemoSegmentRejectsCorruption: any flipped byte in a shipped
// segment rejects the whole import — a warm start must never seed a
// wrong price.
func TestMemoSegmentRejectsCorruption(t *testing.T) {
	seg := segmentOf(t, t.TempDir(), 4)
	// Flip a byte past the header, inside some record frame.
	bad := append([]byte(nil), seg...)
	bad[len(bad)/2] ^= 0xff

	dst := New(1)
	added, err := dst.importSegment(bad)
	if err == nil {
		t.Fatal("corrupt segment imported without error")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not name corruption", err)
	}
	if added != 0 || dst.cache.len() != 0 {
		t.Fatalf("corrupt import merged %d records (len %d), want 0", added, dst.cache.len())
	}
}

// FuzzImportMemoSegment: a shipped memo segment is untrusted input.
// Importing one into a fresh pool never panics; a rejected segment
// leaves the pool's memo empty, and an accepted one adds exactly the
// records it memoized, and nothing when imported again.
func FuzzImportMemoSegment(f *testing.F) {
	seg := segmentOf(f, f.TempDir(), 3)
	hdr := len(headerBytes())
	f.Add(seg)
	for _, n := range []int{0, 1, hdr - 1, hdr, hdr + 5, len(seg) / 2, len(seg) - 1} {
		f.Add(seg[:n])
	}
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(append(headerBytes(), seg...))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(1)
		added, err := p.importSegment(data)
		if err != nil {
			if added != 0 || p.cache.len() != 0 {
				t.Fatalf("rejected segment added %d records (memo holds %d)", added, p.cache.len())
			}
			return
		}
		if added != p.cache.len() {
			t.Fatalf("import reported %d records, memo holds %d", added, p.cache.len())
		}
		if again, err := p.importSegment(data); err != nil || again != 0 {
			t.Fatalf("second import added %d records (err %v), want 0", again, err)
		}
	})
}
