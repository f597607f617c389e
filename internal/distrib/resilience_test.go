package distrib

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"reflect"
	"syscall"
	"testing"
	"time"

	"temp/internal/cost"
	"temp/internal/engine"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// memoProbeKind reports how many memo entries the executing process
// holds, then sweeps its input jobs and reports how the memo served
// them — run through the fabric, it observes the worker subprocess's
// post-sync state.
const memoProbeKind = "distrib.test.memoprobe"

type memoProbeIn struct{ Jobs []engine.Job }

type memoProbeOut struct {
	Records          int
	DiskHits, Misses int64
	StepTimes        []float64
}

func init() {
	RegisterKind(memoProbeKind, HandlerGob(func(ctx context.Context, in memoProbeIn) (memoProbeOut, error) {
		before := engine.CountersSnapshot()
		out := memoProbeOut{Records: before.Entries}
		for _, r := range engine.Sweep(in.Jobs) {
			out.StepTimes = append(out.StepTimes, r.Breakdown.StepTime)
		}
		after := engine.CountersSnapshot()
		out.DiskHits, out.Misses = after.DiskHits-before.DiskHits, after.Misses-before.Misses
		return out, nil
	}))
}

func workerCommand() ([]string, []string) {
	return []string{os.Args[0], "-test.run=^TestWorkerProcess$"},
		[]string{"TEMP_DISTRIB_WORKER=1"}
}

// TestHeartbeatDetectsStalledWorker SIGSTOPs a worker mid-sweep — the
// process is alive but wedged, so its pipes never close and TCP-style
// keepalive would never fire. The heartbeat detector must declare it
// dead after MissedBeats silent intervals and requeue its in-flight
// shard onto the surviving worker, keeping the merged result
// bit-identical to the in-process golden.
func TestHeartbeatDetectsStalledWorker(t *testing.T) {
	inputs := squares(30, 20)
	golden, goldenErrs := RunTasks[squareIn, squareOut](nil, testKind, inputs)
	checkSquares(t, golden, goldenErrs)

	cmd, env := workerCommand()
	hb := 50 * time.Millisecond
	f, err := New(Options{
		Workers: 2, ShardSize: 2,
		Heartbeat: hb, MissedBeats: 3,
		Command: cmd, Env: env,
	})
	if err != nil {
		t.Fatalf("fabric: %v", err)
	}
	t.Cleanup(func() { f.Shutdown() })

	var stalledAt time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(60 * time.Millisecond)
		f.mu.Lock()
		pid := f.workers[0].pid
		f.mu.Unlock()
		stalledAt = time.Now()
		if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
			t.Errorf("SIGSTOP worker 0 (pid %d): %v", pid, err)
		}
	}()
	outs, errs := RunTasks[squareIn, squareOut](f, testKind, inputs)
	finished := time.Now()
	<-done
	checkSquares(t, outs, errs)
	if !reflect.DeepEqual(outs, golden) {
		t.Fatal("merged result after stall differs from the in-process golden")
	}
	// Detection fires at MissedBeats*hb; well before that bound times
	// ten, the whole remaining sweep must have finished on the
	// survivor. (TCP keepalive, for scale, defaults to two hours.)
	if d := finished.Sub(stalledAt); d > 10*3*hb+time.Second {
		t.Fatalf("run took %s after the stall; heartbeat detection did not rescue it", d)
	}

	fs := f.Shutdown()
	if fs.HeartbeatDead != 1 {
		t.Fatalf("heartbeat deaths = %d, want 1", fs.HeartbeatDead)
	}
	if fs.Requeued < 1 {
		t.Fatalf("requeued = %d, want >= 1", fs.Requeued)
	}
	died, missed := 0, int64(0)
	for _, w := range fs.Workers {
		if w.Died {
			died++
			missed = w.MissedBeats
		}
	}
	if died != 1 {
		t.Fatalf("died workers = %d, want 1", died)
	}
	if missed < 3 {
		t.Fatalf("dead worker recorded %d missed beats, want >= 3", missed)
	}
}

// evilWriter is one corrupt-frame scenario: given the raw conn (and
// its buffered writer), emit a malformed response to the shard it
// just received.
type evilWriter func(t *testing.T, conn net.Conn, bw *bufio.Writer, sh *shardMsg)

// TestGarbledFramesMarkWorkerDead is the fuzz-style table test: a
// fake TCP worker answers its first shard with garbage — a garbled
// length prefix, an oversize length, a corrupt payload, a truncated
// frame, a protocol-violating message, a shape-mismatched result.
// Every case must mark the worker dead and requeue the shard (the run
// finishes in-process, bit-identical); none may panic or hang.
func TestGarbledFramesMarkWorkerDead(t *testing.T) {
	rawFrame := func(payloadLen, sum uint32, payload []byte) []byte {
		b := make([]byte, frameHeaderSize+len(payload))
		binary.LittleEndian.PutUint32(b[0:4], payloadLen)
		binary.LittleEndian.PutUint32(b[4:8], sum)
		copy(b[frameHeaderSize:], payload)
		return b
	}
	cases := []struct {
		name string
		evil evilWriter
	}{
		{"zero-length-prefix", func(t *testing.T, conn net.Conn, bw *bufio.Writer, sh *shardMsg) {
			conn.Write(rawFrame(0, 0, nil))
		}},
		{"oversize-length-prefix", func(t *testing.T, conn net.Conn, bw *bufio.Writer, sh *shardMsg) {
			conn.Write(rawFrame(maxFrame+1, 0, []byte("x")))
		}},
		{"checksum-mismatch", func(t *testing.T, conn net.Conn, bw *bufio.Writer, sh *shardMsg) {
			payload := []byte("not a gob stream")
			conn.Write(rawFrame(uint32(len(payload)), crc32.ChecksumIEEE(payload)+1, payload))
		}},
		{"truncated-frame", func(t *testing.T, conn net.Conn, bw *bufio.Writer, sh *shardMsg) {
			payload := []byte("cut off mid-frame")
			frame := rawFrame(uint32(len(payload)+64), crc32.ChecksumIEEE(payload), payload)
			conn.Write(frame) // header promises 64 more bytes that never come
		}},
		{"protocol-violation", func(t *testing.T, conn net.Conn, bw *bufio.Writer, sh *shardMsg) {
			// A well-formed frame of a type the coordinator never
			// expects mid-run.
			writeFrame(bw, &envelope{Type: msgHello, Hello: &helloMsg{Version: protoVersion}})
		}},
		{"result-shape-mismatch", func(t *testing.T, conn net.Conn, bw *bufio.Writer, sh *shardMsg) {
			writeFrame(bw, &envelope{Type: msgResult, Result: &resultMsg{Seq: sh.Seq, Start: sh.Start}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reserve a port, release it, let the fake worker
			// retry-dial while the fabric binds.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()

			go func() {
				var conn net.Conn
				var err error
				for i := 0; i < 100; i++ {
					if conn, err = net.Dial("tcp", addr); err == nil {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				if err != nil {
					t.Errorf("fake worker dial: %v", err)
					return
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				if _, err := exchangeHello(br, bw, os.Getpid(), true); err != nil {
					t.Errorf("fake worker hello: %v", err)
					return
				}
				for {
					env, err := readFrame(br)
					if err != nil {
						return // coordinator tore the link down
					}
					if env.Type == msgShard && env.Shard != nil {
						tc.evil(t, conn, bw, env.Shard)
						return
					}
				}
			}()

			f, err := New(Options{Workers: 1, Listen: addr, ShardSize: 2})
			if err != nil {
				t.Fatalf("fabric: %v", err)
			}
			outs, errs := RunTasks[squareIn, squareOut](f, testKind, squares(6, 0))
			checkSquares(t, outs, errs)
			fs := f.Shutdown()
			died := 0
			for _, w := range fs.Workers {
				if w.Died {
					died++
				}
			}
			if died != 1 {
				t.Fatalf("died workers = %d, want 1", died)
			}
			if fs.InProcessTasks != 6 {
				t.Fatalf("inprocess tasks = %d, want all 6 after the worker died", fs.InProcessTasks)
			}
		})
	}
}

// TestChaosCampaignBitIdentical runs seeded chaos campaigns — corrupt,
// stall, and kill each at 10% per frame, both directions, across 4
// workers — and requires the merged result to stay bit-identical to
// the in-process golden under every seed. Requeue, retry bounds,
// heartbeat death, and in-process fallback carry correctness; chaos
// only decides how hard they are exercised.
func TestChaosCampaignBitIdentical(t *testing.T) {
	inputs := squares(48, 1)
	golden, goldenErrs := RunTasks[squareIn, squareOut](nil, testKind, inputs)
	checkSquares(t, golden, goldenErrs)

	cmd, env := workerCommand()
	for _, seed := range []int64{1, 2, 3} {
		f, err := New(Options{
			Workers: 4, ShardSize: 2, Retries: 3,
			Heartbeat: 40 * time.Millisecond, MissedBeats: 3,
			ShardTimeout:  2 * time.Second,
			AttachTimeout: time.Second,
			Chaos: &ChaosConfig{
				Seed:        seed,
				CorruptRate: 0.1, StallRate: 0.1, KillRate: 0.1,
				Stall: 120 * time.Millisecond,
			},
			Command: cmd, Env: env,
		})
		// Chaos may eat a hello: a partially attached fabric is the
		// expected degraded mode, not a failure.
		_ = err
		outs, errs := RunTasks[squareIn, squareOut](f, testKind, inputs)
		for i := range errs {
			if errs[i] != nil {
				t.Fatalf("seed %d: task %d surfaced a transport error: %v", seed, i, errs[i])
			}
		}
		if !reflect.DeepEqual(outs, golden) {
			t.Fatalf("seed %d: merged result under chaos differs from the in-process golden", seed)
		}
		f.Shutdown()
	}
}

// TestDrainFinishesInFlight: Drain blocks until the running sweep
// completes, and afterwards the fabric (still valid) executes new
// runs in-process.
func TestDrainFinishesInFlight(t *testing.T) {
	f := newTestFabric(t, 2, 1)
	inputs := squares(12, 30)

	type runOut struct {
		outs []squareOut
		errs []error
	}
	got := make(chan runOut, 1)
	go func() {
		outs, errs := RunTasks[squareIn, squareOut](f, testKind, inputs)
		got <- runOut{outs, errs}
	}()
	time.Sleep(50 * time.Millisecond)
	f.Drain()
	if !f.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	// Drain returning means the run's shards are all merged; give the
	// caller goroutine a brief grace window to decode and hand back.
	select {
	case r := <-got:
		checkSquares(t, r.outs, r.errs)
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Drain returned while the run was still in flight")
	}
	if !f.Snapshot().Draining {
		t.Fatal("Snapshot does not report draining")
	}

	// Post-drain runs complete in-process.
	before := f.Snapshot().InProcessTasks
	outs, errs := RunTasks[squareIn, squareOut](f, testKind, squares(8, 0))
	checkSquares(t, outs, errs)
	if after := f.Snapshot().InProcessTasks; after-before != 8 {
		t.Fatalf("post-drain run executed %d tasks in-process, want all 8", after-before)
	}
}

// TestRunCtxCancelAbandonsShards: cancelling the Run context returns
// promptly, stamps unfinished tasks with ctx.Err(), and leaves the
// fabric shut-downable.
func TestRunCtxCancelAbandonsShards(t *testing.T) {
	f := newTestFabric(t, 2, 2)
	var payloads [][]byte
	for _, in := range squares(24, 150) {
		b, err := EncodeGob(in)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, errs := f.RunCtx(ctx, testKind, payloads)
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancelled run still took %s", d)
	}
	cancelled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		} else if err != nil {
			t.Fatalf("unexpected task error: %v", err)
		}
	}
	if cancelled == 0 {
		t.Fatal("no task reported ctx.Err() after cancellation")
	}
}

// TestMemoSyncWarmStartsWorker: with SyncMemo on, a worker that
// reports no memo of its own receives the coordinator's warm segment
// at attach and serves probes against it.
func TestMemoSyncWarmStartsWorker(t *testing.T) {
	memo, err := engine.AttachDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		engine.Default().SetDiskMemo(nil)
		memo.Close()
	})
	job := engine.Job{
		Model:  model.GPT3_6_7B(),
		Wafer:  hw.EvaluationWafer(),
		Config: parallel.Config{DP: 2, TP: 2, TATP: 8},
		Opts:   cost.TEMPOptions(),
	}
	const records = 5
	jobs := make([]engine.Job, records)
	for i := range jobs {
		jobs[i] = job
		jobs[i].Model.Layers += i
	}
	priced := engine.Sweep(jobs)
	if _, n := engine.MemoSegment(); n != records {
		t.Fatalf("coordinator memo holds %d records, want %d", n, records)
	}

	cmd, env := workerCommand()
	f, err := New(Options{Workers: 1, SyncMemo: true, Command: cmd, Env: env})
	if err != nil {
		t.Fatalf("fabric: %v", err)
	}
	outs, errs := RunTasks[memoProbeIn, memoProbeOut](f, memoProbeKind, []memoProbeIn{{Jobs: jobs}})
	if errs[0] != nil {
		t.Fatalf("probe: %v", errs[0])
	}
	if got := outs[0]; got.Records != records || got.DiskHits != records || got.Misses != 0 {
		t.Fatalf("worker held %d warm memo records and served %d disk hits, %d misses; want %d, %d, 0",
			got.Records, got.DiskHits, got.Misses, records, records)
	}
	for i, r := range priced {
		if outs[0].StepTimes[i] != r.Breakdown.StepTime {
			t.Errorf("job %d: worker step time %v, coordinator %v", i, outs[0].StepTimes[i], r.Breakdown.StepTime)
		}
	}
	fs := f.Shutdown()
	if fs.InProcessTasks != 0 {
		t.Fatalf("probe ran in-process (%d tasks), not on the worker", fs.InProcessTasks)
	}
	if fs.Workers[0].MemoSyncBytes == 0 {
		t.Fatal("worker stats record no synced memo bytes")
	}
}
