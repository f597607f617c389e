package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
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

// frameOf returns one record frame with a valid length and checksum
// prefix, whatever the key and value hold.
func frameOf(key, val []byte) []byte {
	fr := make([]byte, frameHeader, frameHeader+len(key)+len(val))
	fr = append(append(fr, key...), val...)
	binary.LittleEndian.PutUint32(fr[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(fr[4:], uint32(len(val)))
	binary.LittleEndian.PutUint32(fr[8:], crc32.ChecksumIEEE(fr[frameHeader:]))
	return fr
}

// FuzzImportMemoSegment: a shipped memo segment is untrusted input.
// Importing one into a fresh pool never panics; a rejected segment
// leaves the pool's memo empty, and an accepted one adds exactly the
// records it memoized, and nothing when imported again. Decoding is
// canonical: every record of an accepted segment re-encodes to exactly
// its stored value bytes, and so does the input itself when it decodes
// as a bare record value (a frame's checksum hides most value
// mutations from the import, so the bare decode is where the fuzzer
// reaches the value decoder).
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

	// Records with a persisted error and with non-finite floats, as a
	// segment and as bare values.
	special := diskResult(1)
	special.Breakdown.StepTime = math.NaN()
	special.Breakdown.Power = math.Inf(-1)
	special.Breakdown.Memory.Capacity = math.Copysign(0, -1)
	const msg = "cost: no viable placement for dp1"
	failed := Result{Err: errors.New(msg)}
	p := New(1)
	d, err := p.AttachDiskMemo(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for i, r := range []Result{special, failed} {
		if err := storeRecord(p, diskJob(i), r); err != nil {
			f.Fatal(err)
		}
		f.Add(appendResult(nil, r))
	}
	oddSeg, _ := d.segment()
	d.Close()
	f.Add(oddSeg)

	// Checksummed frames whose values are not canonical: a bool byte of
	// 2, an error text running past the value, a trailing byte.
	key := appendJobKey(nil, diskJob(0))
	val := appendResult(nil, failed)
	badBool := append([]byte(nil), val...)
	badBool[len(badBool)-len(msg)-9] = 2 // the error flag
	for _, v := range [][]byte{badBool, val[:len(val)-1], append(append([]byte(nil), val...), 0)} {
		f.Add(v)
		f.Add(append(headerBytes(), frameOf(key, v)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, ok := decodeResult(data); ok && !bytes.Equal(appendResult(nil, r), data) {
			t.Fatalf("value %x decodes to a result that re-encodes differently", data)
		}
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
		parseMemo(data, func(key []byte, r Result, frame []byte) {
			if val := frame[frameHeader+len(key):]; !bytes.Equal(appendResult(nil, r), val) {
				t.Fatalf("record %x decodes to a result that re-encodes differently", key)
			}
		})
		if again, err := p.importSegment(data); err != nil || again != 0 {
			t.Fatalf("second import added %d records (err %v), want 0", again, err)
		}
	})
}
