package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
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
//
// Keys are the canonical binary job encoding (appendJobKey); values
// are one self-contained gob stream per record (a fresh encoder each
// time, so records decode independently of their predecessors). The
// schema version covers both sides: bump it whenever Job's key
// encoding or the stored record shape changes, and old files are
// simply ignored instead of misread.
const (
	diskMemoMagic   = "TEMPMEMO"
	diskMemoVersion = 4
	// diskMemoMaxFrame bounds a frame's key/value lengths; anything
	// larger is corruption, not data.
	diskMemoMaxFrame = 1 << 28
)

// diskMemoFile is the memo's file name inside its directory.
const diskMemoFile = "costmemo.bin"

// Auto-compaction policy. Concurrent appenders (distributed workers
// sharing one memo dir) can legitimately write the same job twice —
// each process only dedupes against its own index plus whatever was
// on disk when it opened. Last-write-wins on load keeps the index
// correct, but the dead bytes accumulate across runs. When an open
// finds that fewer than half the parsed records are live (and the
// file is big enough for the rewrite to matter), it rewrites the file
// from the index so long-lived memo dirs stay bounded by their live
// content.
const compactMinRecords = 64

// diskRecord is the stored shape of one Result. Errors are persisted
// as text — the cost model's errors are deterministic descriptions
// ("no viable placement", OOM), so a warm run reconstructs the same
// failures without re-pricing anything.
type diskRecord struct {
	Breakdown cost.Breakdown
	ErrMsg    string
	HasErr    bool
}

// DiskMemo is a persistent, content-keyed result store layered under
// the engine's in-memory memo: read fully on open, appended on every
// miss, compacted (atomic tmp+rename) when opening finds a corrupt
// tail. One process appends through one handle; cross-process
// appenders are safe because each record is written with a single
// O_APPEND write and readers validate frames.
type DiskMemo struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	index map[string]Result

	keyBuf []byte
	valBuf bytes.Buffer

	loaded    int // records recovered on open (including duplicates)
	dropped   int // trailing bytes discarded on open
	compacted int // duplicate records discarded by auto-compaction on open
}

// OpenDiskMemo opens (creating if needed) the persistent memo in dir.
// All valid records are loaded into the in-memory index; a corrupt or
// truncated tail is dropped and the file compacted to its valid
// prefix before appending resumes.
func OpenDiskMemo(dir string) (*DiskMemo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk memo dir: %w", err)
	}
	path := filepath.Join(dir, diskMemoFile)
	m := &DiskMemo{path: path, index: map[string]Result{}}

	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("engine: disk memo read: %w", err)
	}
	validLen := m.load(data)
	if validLen < len(data) {
		m.dropped = len(data) - validLen
	}
	switch {
	case m.loaded >= compactMinRecords && 2*len(m.index) < m.loaded:
		// Size-triggered auto-compaction: under half the records are
		// live (duplicates from concurrent writers), so rewrite the
		// file from the index. This also sheds any corrupt tail.
		m.compacted = m.loaded - len(m.index)
		if err := m.compactFromIndex(); err != nil {
			return nil, err
		}
		m.loaded = len(m.index)
	case validLen < len(data):
		// Corrupt or foreign tail (or a whole file from another schema
		// version): atomically rewrite the valid prefix so appends
		// never land after garbage.
		if err := m.compact(data[:validLen]); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: disk memo open: %w", err)
	}
	m.f = f
	if len(data) == 0 {
		if err := m.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return m, nil
}

// load parses data into the index and returns the length of the valid
// prefix (header plus every whole, checksummed, decodable record).
func (m *DiskMemo) load(data []byte) int {
	if len(data) == 0 {
		return 0
	}
	hdr := len(diskMemoMagic) + 1
	if len(data) < hdr || string(data[:len(diskMemoMagic)]) != diskMemoMagic ||
		data[len(diskMemoMagic)] != diskMemoVersion {
		return 0
	}
	off := hdr
	for off+12 <= len(data) {
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
		end := off + 12 + int(keyLen) + int(valLen)
		if end < off || end > len(data) {
			break
		}
		body := data[off+12 : end]
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		var rec diskRecord
		if err := gob.NewDecoder(bytes.NewReader(body[keyLen:])).Decode(&rec); err != nil {
			break
		}
		r := Result{Breakdown: rec.Breakdown}
		if rec.HasErr {
			r.Err = errors.New(rec.ErrMsg)
		}
		m.index[string(body[:keyLen])] = r
		m.loaded++
		off = end
	}
	return off
}

// compact atomically replaces the file with the given valid prefix.
func (m *DiskMemo) compact(valid []byte) error {
	tmp := m.path + ".tmp"
	if len(valid) == 0 {
		valid = headerBytes()
	}
	if err := os.WriteFile(tmp, valid, 0o644); err != nil {
		return fmt.Errorf("engine: disk memo compact: %w", err)
	}
	if err := os.Rename(tmp, m.path); err != nil {
		return fmt.Errorf("engine: disk memo compact: %w", err)
	}
	return nil
}

// compactFromIndex atomically rewrites the file with exactly the live
// records (one frame per index entry, file order unspecified).
func (m *DiskMemo) compactFromIndex() error {
	buf, err := m.segmentLocked()
	if err != nil {
		return err
	}
	return m.compact(buf)
}

// segmentLocked serializes the live index in the on-disk format
// (header plus one record frame per entry). Callers hold m.mu.
func (m *DiskMemo) segmentLocked() ([]byte, error) {
	buf := headerBytes()
	var val bytes.Buffer
	for key, r := range m.index {
		rec := diskRecord{Breakdown: r.Breakdown}
		if r.Err != nil {
			rec.HasErr = true
			rec.ErrMsg = r.Err.Error()
		}
		val.Reset()
		if err := gob.NewEncoder(&val).Encode(rec); err != nil {
			return nil, fmt.Errorf("engine: disk memo segment encode: %w", err)
		}
		buf = appendRecordFrame(buf, key, val.Bytes())
	}
	return buf, nil
}

// Segment serializes the memo's live records in the on-disk format,
// for shipping warm state to shared-nothing workers over the fabric
// (distrib memo sync). The segment round-trips through ImportSegment.
func (m *DiskMemo) Segment() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.segmentLocked()
}

// ImportSegment merges a serialized segment's records into the index
// without persisting them (synced state belongs to the coordinator's
// memo, not the worker's). Unlike load, the whole segment must parse:
// any invalid record rejects the import, since a shipped segment has
// no torn-tail excuse. Returns how many records were merged (existing
// keys keep their local value).
func (m *DiskMemo) ImportSegment(data []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	probe := &DiskMemo{index: map[string]Result{}}
	if n := probe.load(data); n != len(data) {
		return 0, fmt.Errorf("engine: memo segment corrupt at byte %d of %d", n, len(data))
	}
	added := 0
	for key, r := range probe.index {
		if _, ok := m.index[key]; !ok {
			m.index[key] = r
			added++
		}
	}
	return added, nil
}

// NewMemoryMemo returns a memo with no backing file: lookups and
// stores work against the in-memory index only. It is the landing
// spot for synced segments on workers that have no memo directory.
func NewMemoryMemo() *DiskMemo {
	return &DiskMemo{index: map[string]Result{}}
}

// appendRecordFrame appends one self-delimiting record frame
// (lengths, checksum, key, value) to buf.
func appendRecordFrame(buf []byte, key string, val []byte) []byte {
	var lens [12]byte
	binary.LittleEndian.PutUint32(lens[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(lens[4:], uint32(len(val)))
	crc := crc32.ChecksumIEEE([]byte(key))
	crc = crc32.Update(crc, crc32.IEEETable, val)
	binary.LittleEndian.PutUint32(lens[8:], crc)
	buf = append(buf, lens[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

func headerBytes() []byte {
	return append([]byte(diskMemoMagic), diskMemoVersion)
}

func (m *DiskMemo) writeHeader() error {
	if _, err := m.f.Write(headerBytes()); err != nil {
		return fmt.Errorf("engine: disk memo header: %w", err)
	}
	return nil
}

// Lookup returns the persisted result for a normalized job. The hit
// path does not allocate: the key is encoded into a retained buffer
// and looked up with a non-escaping string conversion.
func (m *DiskMemo) Lookup(j Job) (Result, bool) {
	m.mu.Lock()
	m.keyBuf = appendJobKey(m.keyBuf[:0], j)
	r, ok := m.index[string(m.keyBuf)]
	m.mu.Unlock()
	return r, ok
}

// Store persists one freshly priced result, making it visible to
// Lookup immediately and to every later process on this directory.
// Each record is one O_APPEND write, so concurrent writers interleave
// whole records. Write errors are reported but leave the in-memory
// index updated — a failing disk degrades to a session cache.
func (m *DiskMemo) Store(j Job, r Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keyBuf = appendJobKey(m.keyBuf[:0], j)
	if _, ok := m.index[string(m.keyBuf)]; ok {
		return nil
	}
	key := string(m.keyBuf)
	m.index[key] = r
	if m.f == nil {
		return nil
	}

	rec := diskRecord{Breakdown: r.Breakdown}
	if r.Err != nil {
		rec.HasErr = true
		rec.ErrMsg = r.Err.Error()
	}
	m.valBuf.Reset()
	if err := gob.NewEncoder(&m.valBuf).Encode(rec); err != nil {
		return fmt.Errorf("engine: disk memo encode: %w", err)
	}
	val := m.valBuf.Bytes()

	frame := appendRecordFrame(make([]byte, 0, 12+len(key)+len(val)), key, val)
	if _, err := m.f.Write(frame); err != nil {
		return fmt.Errorf("engine: disk memo append: %w", err)
	}
	return nil
}

// Len returns the number of indexed records.
func (m *DiskMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index)
}

// Recovered reports how many records the open loaded and how many
// trailing bytes it had to drop as corrupt.
func (m *DiskMemo) Recovered() (records, droppedBytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loaded, m.dropped
}

// Compacted reports how many duplicate records the open's
// auto-compaction discarded (0 when no compaction ran).
func (m *DiskMemo) Compacted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compacted
}

// Path returns the backing file's path.
func (m *DiskMemo) Path() string { return m.path }

// Close releases the file handle. Lookup and Store on a closed memo
// still serve the in-memory index (stores stop persisting).
func (m *DiskMemo) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f = nil
	return err
}
