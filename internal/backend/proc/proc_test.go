package proc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/backend/proc"
	"repro/internal/engine"
)

// TestMain makes the test binary its own worker binary: a spawned copy
// sees the coordinator's environment, runs the worker loop and exits
// before any test executes.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	os.Exit(m.Run())
}

func testOptions(workers int) proc.Options {
	return proc.Options{
		Workers:           workers,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		RespawnMax:        3,
	}
}

func newCoord(t *testing.T, workers int) *proc.Coordinator {
	t.Helper()
	c, err := proc.New(testOptions(workers))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// randomMemReq builds a deterministic pseudo-random merge request over
// the given cell count, in two chunk columns, and its answer from the
// dense per-processor columns it was built from (each processor's whole
// column fed as one run through the reference merger).
func randomMemReq(rng *rand.Rand, procs, cells int) (engine.MemMergeReq, engine.MergeStats) {
	var reads, writes [][]int32
	var ref engine.MemMerger
	ref.Begin(0, cells)
	for p := 0; p < procs; p++ {
		var r, w []int32
		for i := rng.Intn(20); i > 0; i-- {
			r = append(r, int32(rng.Intn(cells)))
		}
		for i := rng.Intn(20); i > 0; i-- {
			w = append(w, int32(rng.Intn(cells)))
		}
		reads, writes = append(reads, r), append(writes, w)
	}
	for p, col := range reads {
		ref.Read(p, col)
	}
	for p, col := range writes {
		ref.Write(p, col)
	}
	req := engine.MemMergeReq{Phase: 1, Attempt: 1, Cells: cells, P: procs}
	req.Reads, req.ReadProcs = proc.ChunkCols(reads, 2)
	req.Writes, req.WriteProcs = proc.ChunkCols(writes, 2)
	return req, ref.End()
}

// TestMergeMemMatchesReference pins the distributed merge to the
// dense per-processor reference over the full cell space, across worker
// counts.
func TestMergeMemMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			c := newCoord(t, workers)
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 25; trial++ {
				req, want := randomMemReq(rng, 5, 64)
				req.Phase = trial
				got, err := c.MergeMem(req)
				if err != nil {
					t.Fatalf("trial %d: MergeMem: %v", trial, err)
				}
				if got != want {
					t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
				}
			}
		})
	}
}

// TestMergeRouteMatchesReference does the same for the routing barrier.
func TestMergeRouteMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			c := newCoord(t, workers)
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 25; trial++ {
				req := engine.RouteMergeReq{Phase: trial, Attempt: 1, P: 9}
				dsts := make([][]int32, req.P)
				recv := make([]int64, req.P)
				var want engine.RouteStats
				for s := range dsts {
					for i := rng.Intn(15); i > 0; i-- {
						d := rng.Intn(req.P)
						dsts[s] = append(dsts[s], int32(d))
						recv[d]++
						want.HRecv = max(want.HRecv, recv[d])
					}
				}
				req.Dsts, req.Srcs = proc.ChunkCols(dsts, 2)
				got, err := c.MergeRoute(req)
				if err != nil {
					t.Fatalf("trial %d: MergeRoute: %v", trial, err)
				}
				if got != want {
					t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
				}
			}
		})
	}
}

// TestCrashRealizeRespawns SIGKILLs a worker through the fault-realizer
// hook and checks the next barrier succeeds on a respawned replacement.
func TestCrashRealizeRespawns(t *testing.T) {
	c := newCoord(t, 2)
	req, _ := randomMemReq(rand.New(rand.NewSource(3)), 4, 32)
	want, err := c.MergeMem(req)
	if err != nil {
		t.Fatalf("pre-kill merge: %v", err)
	}
	c.Realize(engine.InjectCtx{Cells: 32}, engine.Verdict{Class: engine.FaultCrash, Proc: 1})
	// The kill lands asynchronously; wait for the reader to notice.
	time.Sleep(50 * time.Millisecond)
	got, err := c.MergeMem(req)
	if err != nil {
		t.Fatalf("post-kill merge: %v", err)
	}
	if got != want {
		t.Fatalf("post-kill merge diverged: got %+v want %+v", got, want)
	}
	st := c.Stats()
	if st.Kills != 1 || st.Respawns < 1 {
		t.Fatalf("stats = %+v, want 1 kill and ≥1 respawn", st)
	}
}

// TestDropRealizeTimesOutTransient arms a frame drop and checks the
// barrier surfaces a transient transport error (deadline expiry), then
// recovers on the next attempt.
func TestDropRealizeTimesOutTransient(t *testing.T) {
	c := newCoord(t, 2)
	req := engine.RouteMergeReq{Phase: 0, Attempt: 1, P: 4, Dsts: [][]int32{{1, 2, 3, 0}}, Srcs: [][]int32{{0, 1, 2, 3}}}
	c.Realize(engine.InjectCtx{}, engine.Verdict{Class: engine.FaultTransient, Addr: 1, Drop: true})
	_, err := c.MergeRoute(req)
	var te *engine.TransportError
	if !errors.As(err, &te) || te.Permanent {
		t.Fatalf("dropped frame: err = %v, want transient TransportError", err)
	}
	req.Attempt = 2
	if _, err := c.MergeRoute(req); err != nil {
		t.Fatalf("retry after drop: %v", err)
	}
	if st := c.Stats(); st.Drops != 1 {
		t.Fatalf("stats = %+v, want 1 drop", st)
	}
}

// TestDupRealizeIsHarmless arms a frame duplication: the duplicate
// response must be filtered out and both this and the next barrier
// answer correctly.
func TestDupRealizeIsHarmless(t *testing.T) {
	c := newCoord(t, 2)
	rng := rand.New(rand.NewSource(5))
	var ref engine.MemMerger
	c.Realize(engine.InjectCtx{}, engine.Verdict{Class: engine.FaultTransient, Addr: 0, Drop: false})
	for trial := 0; trial < 3; trial++ {
		req, _ := randomMemReq(rng, 4, 48)
		req.Phase = trial
		want := ref.Merge(req, 0, req.Cells)
		got, err := c.MergeMem(req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
		}
	}
	if st := c.Stats(); st.Dups != 1 {
		t.Fatalf("stats = %+v, want 1 dup", st)
	}
}

// TestRespawnBudgetExhaustionPermanent kills the same rank repeatedly:
// once the budget is gone the failure must be permanent.
func TestRespawnBudgetExhaustionPermanent(t *testing.T) {
	opt := testOptions(1)
	opt.RespawnMax = 1
	c, err := proc.New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	req, _ := randomMemReq(rand.New(rand.NewSource(9)), 2, 16)
	kill := func() {
		c.Realize(engine.InjectCtx{Cells: 16}, engine.Verdict{Class: engine.FaultCrash, Proc: 0})
		time.Sleep(50 * time.Millisecond)
	}
	kill()
	if _, err := c.MergeMem(req); err != nil {
		t.Fatalf("first respawn should absorb the kill: %v", err)
	}
	kill()
	_, err = c.MergeMem(req)
	var te *engine.TransportError
	if !errors.As(err, &te) || !te.Permanent {
		t.Fatalf("budget exhausted: err = %v, want permanent TransportError", err)
	}
}

// TestCloseFailsMergesPermanently pins the closed-coordinator contract.
func TestCloseFailsMergesPermanently(t *testing.T) {
	c := newCoord(t, 1)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, err := c.MergeMem(engine.MemMergeReq{Cells: 4, P: 1})
	var te *engine.TransportError
	if !errors.As(err, &te) || !te.Permanent {
		t.Fatalf("merge after Close: err = %v, want permanent TransportError", err)
	}
}

// TestNewKillsStartedRanksOnFailure boots three ranks through a shell
// wrapper that records each process id; rank 1 exits without a hello.
// New must fail naming rank 1, and must kill rank 0 (already adopted)
// and rank 2 (started concurrently, hello never adopted).
func TestNewKillsStartedRanksOnFailure(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pids := t.TempDir()
	t.Setenv("PROC_TEST_WORKER", exe)
	t.Setenv("PROC_TEST_PIDS", pids)
	opt := testOptions(3)
	opt.Bin = "/bin/sh"
	opt.Args = []string{"-c",
		`echo $$ > "$PROC_TEST_PIDS/$REPRO_PROC_RANK"; [ "$REPRO_PROC_RANK" = 1 ] && exit 1; exec "$PROC_TEST_WORKER"`}
	opt.LogDir = t.TempDir()
	c, err := proc.New(opt)
	if err == nil {
		c.Close()
		t.Fatal("New succeeded with rank 1 never saying hello")
	}
	if !strings.Contains(err.Error(), "spawn worker 1") {
		t.Fatalf("New: err = %v, want a rank-1 spawn failure", err)
	}
	for _, rank := range []string{"0", "2"} {
		raw, err := os.ReadFile(filepath.Join(pids, rank))
		if err != nil {
			t.Fatalf("rank %s was never started: %v", rank, err)
		}
		pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
		if err != nil {
			t.Fatalf("rank %s pid file: %v", rank, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				t.Fatalf("rank %s (pid %d) still running after New failed", rank, pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// BenchmarkMergeMem times one shared-memory merge round trip — encode,
// socket, worker merge, decode — at p = 65536 with one read per
// processor, the shape of a parity level.
func BenchmarkMergeMem(b *testing.B) {
	const p = 1 << 16
	reads := make([][]int32, p)
	for i := range reads {
		reads[i] = []int32{int32(i)}
	}
	req := engine.MemMergeReq{Cells: p, P: p}
	req.Reads, req.ReadProcs = proc.ChunkCols(reads, 2)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			c, err := proc.New(testOptions(workers))
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Phase = i
				if _, err := c.MergeMem(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
