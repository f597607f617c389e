// Package distrib is a coordinator/worker fabric that shards
// engine-shaped workloads (experiment tables, scenario batches, fault
// campaigns) across worker processes and merges their results
// deterministically.
//
// The wire protocol is deliberately small: length-prefixed,
// checksummed frames, each carrying one gob-encoded envelope. Every
// frame is a standalone gob stream (a fresh encoder per frame,
// mirroring the disk memo's record framing) so a reader never depends
// on state from earlier frames and a dropped connection never leaves
// a decoder mid-stream. The CRC makes corruption (a flipped bit on a
// flaky link, a chaos-injected byte) a deterministic protocol error
// instead of a gob-decode lottery.
//
//	frame : len u32le | crc32(payload) u32le | gob(envelope)
//
// The coordinator speaks the same protocol over a worker subprocess's
// stdin/stdout or over a TCP connection (multi-machine via -listen /
// -connect). Task payloads are opaque []byte — the kind registry
// (registry.go) maps a kind string to the handler that decodes,
// executes, and re-encodes them, so the fabric itself stays ignorant
// of every workload's shape.
//
// Liveness rides on the same frame stream: the coordinator pings each
// worker every heartbeat interval, and any inbound frame (pong,
// result, stats) proves the worker alive. A worker that produces no
// frames for N consecutive intervals is declared dead and its
// in-flight shards requeue — long before TCP keepalive would notice a
// stalled peer.
package distrib

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// protoVersion is validated in both directions during the hello
// exchange; bump it whenever the envelope or frame shape changes.
// Version 2 added the frame CRC and the ping/pong/cancel/memo
// messages.
const protoVersion = 2

// maxFrame bounds a frame's length; anything larger is corruption.
const maxFrame = 1 << 30

// frameHeaderSize is the length prefix plus the payload checksum.
const frameHeaderSize = 8

type msgType uint8

const (
	msgHello msgType = iota + 1
	msgShard
	msgResult
	msgDone
	msgStats
	msgPing
	msgPong
	msgCancel
	msgMemo
)

// envelope is the single frame shape; exactly one pointer field is
// non-nil, selected by Type (pings and dones travel header-only).
type envelope struct {
	Type   msgType
	Hello  *helloMsg
	Shard  *shardMsg
	Result *resultMsg
	Stats  *statsMsg
	Beat   *beatMsg
	Cancel *cancelMsg
	Memo   *memoMsg
}

// helloMsg is the first frame in each direction. HasMemo tells the
// coordinator whether the worker already has a persistent memo
// attached (shared directory), so memo sync can skip it.
type helloMsg struct {
	Version int
	PID     int
	HasMemo bool
}

// shardMsg carries a contiguous run of tasks of one kind. Start is
// the global index of the first task, so results are index-addressed
// into the coordinator's pre-sized output slice no matter which
// worker executes the shard or when.
type shardMsg struct {
	Seq      uint64
	Kind     string
	Start    int
	Payloads [][]byte
}

// resultMsg answers one shard: Payloads[i] / Errs[i] correspond to
// the shard's task i (global index Start+i). Errs entries are ""
// on success; handler errors and worker-side panics travel as text.
type resultMsg struct {
	Seq      uint64
	Start    int
	Payloads [][]byte
	Errs     []string
}

// beatMsg is a heartbeat ping or its pong echo. Seq ties a pong to
// its ping for debugging; liveness itself only needs the frame.
type beatMsg struct {
	Seq uint64
}

// cancelMsg asks the worker to abandon an in-flight shard (the
// coordinator's Run context was cancelled, or the shard timed out and
// was requeued elsewhere). Best-effort: a late result for a cancelled
// seq is simply dropped.
type cancelMsg struct {
	Seq uint64
}

// memoMsg ships a serialized DiskMemo segment to a worker that lacks
// the shared memo directory, so remote (shared-nothing) workers start
// warm. CRC covers Data; a mismatch means the segment is discarded
// and the worker starts cold — never a wrong price.
type memoMsg struct {
	Records int
	Data    []byte
	CRC     uint32
}

// statsMsg is the worker's reply to done: its lifetime counters plus
// its engine cache statistics, aggregated coordinator-side.
type statsMsg struct {
	Shards      int
	Tasks       int
	Hits        int64
	Misses      int64
	DiskHits    int64
	BatchCalls  int64
	BatchedJobs int64
}

// writeFrame encodes env as one standalone gob stream and writes the
// whole frame — header and payload — in a single Write on the
// underlying stream (the chaos wrapper relies on one Write per frame
// to inject faults at frame granularity).
func writeFrame(w *bufio.Writer, env *envelope) error {
	buf := bytes.NewBuffer(make([]byte, frameHeaderSize, 512))
	if err := gob.NewEncoder(buf).Encode(env); err != nil {
		return fmt.Errorf("distrib: encode frame: %w", err)
	}
	payload := buf.Bytes()[frameHeaderSize:]
	if len(payload) > maxFrame {
		return fmt.Errorf("distrib: frame too large (%d bytes)", len(payload))
	}
	frame := buf.Bytes()
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(frame); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one length-prefixed envelope, validating the
// payload checksum before decoding.
func readFrame(r *bufio.Reader) (*envelope, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("distrib: bad frame length %d", n)
	}
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(buf); got != sum {
		return nil, fmt.Errorf("distrib: frame checksum mismatch (want %08x, got %08x)", sum, got)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&env); err != nil {
		return nil, fmt.Errorf("distrib: decode frame: %w", err)
	}
	return &env, nil
}

// exchangeHello sends our hello and validates the peer's, returning
// the peer's hello (the coordinator inspects HasMemo for memo sync).
func exchangeHello(r *bufio.Reader, w *bufio.Writer, pid int, hasMemo bool) (*helloMsg, error) {
	if err := writeFrame(w, &envelope{Type: msgHello, Hello: &helloMsg{Version: protoVersion, PID: pid, HasMemo: hasMemo}}); err != nil {
		return nil, err
	}
	env, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if env.Type != msgHello || env.Hello == nil {
		return nil, fmt.Errorf("distrib: expected hello, got message type %d", env.Type)
	}
	if env.Hello.Version != protoVersion {
		return nil, fmt.Errorf("distrib: protocol version mismatch: have %d, peer %d", protoVersion, env.Hello.Version)
	}
	return env.Hello, nil
}
