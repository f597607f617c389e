package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"

	"temp/internal/cost"
)

// Disk-memo file format. The file is a header followed by
// self-delimiting records, so concurrent appenders (O_APPEND) and
// torn tails degrade gracefully: a reader keeps every record up to
// the first frame that fails its length or checksum validation and
// ignores the rest.
//
//	header : "TEMPMEMO" magic + 1 schema-version byte
//	record : keyLen u32le | valLen u32le | crc32(key‖val) u32le | key | val
//	val    : model str | 10 ints | 22 floats | 2 bools | hasErr bool [| err str]
//
// Keys are the canonical binary job encoding (appendJobKey). Values
// are the fixed-layout Result encoding (appendResult) in the same
// helpers: ints as u64le, floats as their IEEE-754 bits in a u64le,
// bools as one 0/1 byte and strings as a u64le length and the bytes;
// the error text follows only when hasErr is 1. So every record decodes
// on its own, and decodeResult accepts only a value that parses
// exactly. The schema version covers both sides: bump it whenever
// Job's key encoding or the stored result layout changes, and old
// files are simply ignored instead of misread. Version 5 replaced
// version 4's per-record gob streams, which re-sent the Breakdown's
// type descriptor in every record.
const (
	diskMemoMagic   = "TEMPMEMO"
	diskMemoVersion = 5
	// diskMemoMaxFrame bounds a frame's key/value lengths; anything
	// larger is corruption, not data.
	diskMemoMaxFrame = 1 << 28
	// frameHeader is a record's length and checksum prefix.
	frameHeader = 12
)

// diskMemoFile is the memo's file name inside its directory.
const diskMemoFile = "costmemo.bin"

// Auto-compaction policy. Concurrent appenders (distributed workers
// sharing one memo dir) can legitimately write the same job twice —
// each process only dedupes against its own memo, which holds whatever
// was on disk when it attached. The first record of a key wins on
// load, but the dead bytes accumulate across runs. When an attach
// finds that fewer than half the parsed records are live (and the file
// is big enough for the rewrite to matter), it rewrites the file from
// the first frame of each key so long-lived memo dirs stay bounded by
// their live content.
const compactMinRecords = 64

// DiskMemo is the append log of a pool's memo: attaching it loads the
// file into the memo once, and every fresh result is appended with one
// O_APPEND write. It keeps no per-record state, so results live in
// memory once, in the memo. Cross-process appenders are safe because
// each record is written whole and readers validate frames.
type DiskMemo struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	frame []byte // the frame being appended, reused by every append

	records   int // live records at attach plus records appended since
	dropped   int // trailing bytes discarded on attach
	compacted int // duplicate records discarded by auto-compaction on attach
}

// AttachDiskMemo opens (creating if needed) the persistent memo in dir,
// publishes its records into the pool's memo, each marked as loaded
// from disk, and attaches it so fresh results are appended. Among
// duplicate records of a key the first wins. A corrupt or truncated
// tail is dropped and the file compacted to its valid prefix before
// appending resumes.
func (p *Pool) AttachDiskMemo(dir string) (*DiskMemo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk memo dir: %w", err)
	}
	d := &DiskMemo{path: filepath.Join(dir, diskMemoFile)}
	data, err := os.ReadFile(d.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("engine: disk memo read: %w", err)
	}

	// seen and firsts live only while parsing: the keys in the file and
	// the first frame of each, which an auto-compaction keeps.
	seen := make(map[string]struct{})
	var firsts [][]byte
	total := 0
	valid := parseMemo(data, func(key []byte, r Result, frame []byte) {
		total++
		if _, dup := seen[string(key)]; dup {
			return
		}
		k := string(key)
		seen[k] = struct{}{}
		firsts = append(firsts, frame)
		p.cache.publish(k, r, true)
	})
	d.records = len(seen)
	d.dropped = len(data) - valid
	switch {
	case total >= compactMinRecords && 2*d.records < total:
		// Size-triggered auto-compaction: under half the records are
		// live (duplicates from concurrent writers), so rewrite the file
		// from each key's first frame. This also sheds any corrupt tail.
		d.compacted = total - d.records
		live := headerBytes()
		for _, fr := range firsts {
			live = append(live, fr...)
		}
		if err := d.rewrite(live); err != nil {
			return nil, err
		}
	case valid < len(data):
		// Corrupt or foreign tail (or a whole file from another schema
		// version): atomically rewrite the valid prefix so appends
		// never land after garbage.
		if err := d.rewrite(data[:valid]); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(d.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: disk memo open: %w", err)
	}
	d.f = f
	if len(data) == 0 {
		if _, err := f.Write(headerBytes()); err != nil {
			f.Close()
			return nil, fmt.Errorf("engine: disk memo header: %w", err)
		}
	}
	p.cache.disk.Store(d)
	return d, nil
}

// parseMemo walks a memo file or segment, calling rec with the key,
// result and raw frame of every whole, checksummed, decodable record,
// and returns the length of the valid prefix (the header plus those
// records). A file with another magic or schema version has no valid
// prefix. The attach loader keeps the valid prefix; a segment import
// rejects anything short of a whole parse.
func parseMemo(data []byte, rec func(key []byte, r Result, frame []byte)) int {
	hdr := len(diskMemoMagic) + 1
	if len(data) < hdr || !bytes.Equal(data[:hdr], headerBytes()) {
		return 0
	}
	off := hdr
	for off+frameHeader <= len(data) {
		// Two processes racing to create the file may both write the
		// header; a duplicate header at a record boundary is benign.
		if bytes.HasPrefix(data[off:], headerBytes()) {
			off += hdr
			continue
		}
		keyLen := binary.LittleEndian.Uint32(data[off:])
		valLen := binary.LittleEndian.Uint32(data[off+4:])
		crc := binary.LittleEndian.Uint32(data[off+8:])
		if keyLen == 0 || keyLen > diskMemoMaxFrame || valLen > diskMemoMaxFrame {
			break
		}
		end := off + frameHeader + int(keyLen) + int(valLen)
		if end > len(data) {
			break
		}
		body := data[off+frameHeader : end]
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		r, ok := decodeResult(body[keyLen:])
		if !ok {
			break
		}
		rec(body[:keyLen], r, data[off:end])
		off = end
	}
	return off
}

// appendResult appends r's record value to buf: the Breakdown's model
// name, its fields in breakdownFields order, then the error flag and
// text. Errors persist as text because the cost model's errors are
// deterministic descriptions ("no viable placement", OOM), so a warm
// run reconstructs the same failures without re-pricing anything.
// Breakdown.TCME.Phase is not stored: pricing never sets it.
// TestResultRecordCoversEveryField fails when a Breakdown field is
// missing here.
func appendResult(buf []byte, r Result) []byte {
	ints, floats, bools := breakdownFields(&r.Breakdown)
	buf = appendString(buf, r.Breakdown.Model)
	for _, v := range ints {
		buf = appendInt(buf, *v)
	}
	for _, v := range floats {
		buf = appendFloat(buf, *v)
	}
	for _, v := range bools {
		buf = appendBool(buf, *v)
	}
	buf = appendBool(buf, r.Err != nil)
	if r.Err != nil {
		buf = appendString(buf, r.Err.Error())
	}
	return buf
}

// decodeResult decodes one record value appendResult wrote. It accepts
// only a value that parses exactly, so every accepted value re-encodes
// to its own bytes: no read past the end, no bool byte other than 0 or
// 1 and no trailing bytes.
func decodeResult(val []byte) (Result, bool) {
	rd := valueReader{b: val}
	var r Result
	b := &r.Breakdown
	ints, floats, bools := breakdownFields(b)
	b.Model = rd.readString()
	for _, v := range ints {
		*v = rd.readInt()
	}
	for _, v := range floats {
		*v = rd.readFloat()
	}
	for _, v := range bools {
		*v = rd.readBool()
	}
	if rd.readBool() {
		r.Err = errors.New(rd.readString())
	}
	if rd.bad || len(rd.b) != 0 {
		return Result{}, false
	}
	return r, true
}

// breakdownFields lists b's stored int, float and bool fields in their
// stored order, so the encoder and the decoder share one layout.
func breakdownFields(b *cost.Breakdown) (ints [10]*int, floats [22]*float64, bools [2]*bool) {
	c, m, t := &b.Config, &b.Memory, &b.TCME
	ints = [...]*int{
		&c.DP, &c.TP, &c.SP, &c.CP, &c.TATP, &c.PP, (*int)(&b.Engine),
		&t.Iterations, &t.MergedFlows, &t.ReroutedFlows,
	}
	floats = [...]*float64{
		&b.StepTime, &b.ComputeTime, &b.StreamTime, &b.CollectiveTime,
		&b.P2PTime, &b.BubbleTime, &b.OptimizerTime,
		&m.Weights, &m.Grads, &m.Optimizer, &m.Activations, &m.StreamBuf, &m.Capacity,
		&b.EnergyCompute, &b.EnergyComm, &b.EnergyDRAM,
		&b.ThroughputTokens, &b.Power, &b.PowerEfficiency, &b.BWUtilization,
		&t.InitialMaxLoad, &t.FinalMaxLoad,
	}
	bools = [...]*bool{&c.FSDP, &c.MegatronSP}
	return ints, floats, bools
}

// valueReader is a bounds-checked cursor over one record value, the
// inverse of the append helpers. A read past the end or a bool byte
// other than 0 or 1 marks it bad, and every later read fails too.
type valueReader struct {
	b   []byte
	bad bool
}

func (rd *valueReader) readU64() uint64 {
	if len(rd.b) < 8 {
		rd.bad, rd.b = true, nil
		return 0
	}
	v := binary.LittleEndian.Uint64(rd.b)
	rd.b = rd.b[8:]
	return v
}

func (rd *valueReader) readInt() int { return int(int64(rd.readU64())) }

func (rd *valueReader) readFloat() float64 { return math.Float64frombits(rd.readU64()) }

func (rd *valueReader) readBool() bool {
	if len(rd.b) == 0 || rd.b[0] > 1 {
		rd.bad, rd.b = true, nil
		return false
	}
	v := rd.b[0] == 1
	rd.b = rd.b[1:]
	return v
}

func (rd *valueReader) readString() string {
	n := rd.readU64()
	if n > uint64(len(rd.b)) {
		rd.bad, rd.b = true, nil
		return ""
	}
	s := string(rd.b[:n])
	rd.b = rd.b[n:]
	return s
}

// importSegment publishes a shipped segment's records into the pool's
// memo, each marked as loaded from disk, and returns how many it added
// (keys already memoized keep their entry). The whole segment parses
// before any record is published: a shipped segment has no torn-tail
// excuse, so any invalid byte rejects the import.
func (p *Pool) importSegment(data []byte) (int, error) {
	type record struct {
		key []byte
		r   Result
	}
	var recs []record
	if n := parseMemo(data, func(key []byte, r Result, _ []byte) {
		recs = append(recs, record{key, r})
	}); n != len(data) {
		return 0, fmt.Errorf("engine: memo segment corrupt at byte %d of %d", n, len(data))
	}
	added := 0
	for _, x := range recs {
		if _, fresh := p.cache.publish(string(x.key), x.r, true); fresh {
			added++
		}
	}
	return added, nil
}

// segment returns the valid prefix of the memo file and its record
// count, (nil, 0) when the file holds no record or cannot be read. A
// record another writer is appending is past the valid prefix.
func (d *DiskMemo) segment() ([]byte, int) {
	data, err := os.ReadFile(d.path)
	if err != nil {
		return nil, 0
	}
	n := 0
	valid := parseMemo(data, func([]byte, Result, []byte) { n++ })
	if n == 0 {
		return nil, 0
	}
	return data[:valid], n
}

// rewrite atomically replaces the file with data (a bare header when
// data is empty).
func (d *DiskMemo) rewrite(data []byte) error {
	tmp := d.path + ".tmp"
	if len(data) == 0 {
		data = headerBytes()
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("engine: disk memo compact: %w", err)
	}
	if err := os.Rename(tmp, d.path); err != nil {
		return fmt.Errorf("engine: disk memo compact: %w", err)
	}
	return nil
}

func headerBytes() []byte {
	return append([]byte(diskMemoMagic), diskMemoVersion)
}

// append persists one freshly priced result under its job key, visible
// to every later attach of this directory. Each record is one O_APPEND
// write, so concurrent writers interleave whole records. A write error
// is reported and loses only the record: the memo still holds it, so a
// failing disk degrades to a session cache.
func (d *DiskMemo) append(key string, r Result) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	// Encode the frame in place: a zeroed length and checksum prefix,
	// the key and the value, then fill the prefix in.
	var prefix [frameHeader]byte
	frame := append(d.frame[:0], prefix[:]...)
	frame = append(frame, key...)
	frame = appendResult(frame, r)
	d.frame = frame
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(frame)-frameHeader-len(key)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(frame[frameHeader:]))
	if _, err := d.f.Write(frame); err != nil {
		return fmt.Errorf("engine: disk memo append: %w", err)
	}
	d.records++
	return nil
}

// Close releases the file handle; appends after it are dropped.
func (d *DiskMemo) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	return err
}
