package engine

import (
	"errors"
	"fmt"
)

// This file is the commit-barrier backend seam. The engine's default
// ("inproc") commit path is the sharded two-pass merge in mem.go /
// route.go — it stays byte-for-byte what it always was. A
// Backend replaces only the *measurement* half of the barrier: counting
// per-cell contention, detecting read+write violations and measuring the
// h-relation over the request columns. Everything value-carrying stays on
// the coordinating process — write payloads, inbox contents, observer
// emission, cost charging and checkpoint/rollback — because the engines
// are generic over payload types the transport cannot serialize.
//
// That split is what makes a distributed backend possible without
// touching the determinism contract: the merge statistics are a pure
// function of the (addr, proc) request columns, which are the chunk
// arenas' own columns in ascending processor order, handed over without
// any per-processor header (so a merge request costs its entries, never
// p), and the backend's answer
// is compared against nothing — it IS the answer, so a backend that
// implements the reference rules (see MemMerger / RouteMerger) produces
// byte-identical event streams, cost reports and memory images to the
// in-proc path at every Workers setting and every worker-process count.
//
// Transport failures are recovery-schedulable, not fatal: a failed merge
// surfaces as PhaseRetry through the machine's RetryPolicy — charging the
// same model-time backoff stall an injected transient fault charges —
// unless the backend declares the error permanent (TransportError with
// Permanent set), which poisons the machine diagnosably.

// MemMergeReq is one shared-memory barrier merge: the request columns
// of the phase attempt as the engine's chunk arenas hold them, borrowed
// for the duration of the MergeMem call. Column j of each kind is chunk
// j's: an address column and its parallel issuing-processor column.
// Chunks cover ascending processor ranges and each chunk lists its
// requests by ascending processor and, per processor, in issue order, so
// processor ids never decrease along the concatenated columns and one
// processor's requests of a kind are one contiguous run. A request costs
// its entries, not p: there is no per-processor header, and processors
// without requests (silent or crashed) do not appear.
type MemMergeReq struct {
	// Phase is the zero-based index the phase would commit as; Attempt
	// the 1-based attempt counter. Both are diagnostic — the merge result
	// must not depend on them.
	Phase, Attempt int
	// Cells is the current shared-memory size.
	Cells int
	// P is the processor count; processor ids are in [0, P).
	P int
	// Reads and Writes hold one address column per chunk; ReadProcs and
	// WriteProcs the parallel processor columns (same shape).
	Reads, ReadProcs   [][]int32
	Writes, WriteProcs [][]int32
}

// MergeStats is the shared-memory merge answer: the paper's per-cell
// contention maxima (processors per cell, deduplicated per processor) and
// the smallest cell that was both read and written this phase (−1 =
// none). MaxOps/MaxRW stay coordinator-side — they never leave the chunk
// arenas.
type MergeStats struct {
	KRead, KWrite int64
	// Viol is the smallest violating cell address, −1 for a clean phase.
	Viol int32
}

// RouteMergeReq is one message-routing barrier merge: the destination
// and sender columns of the superstep attempt, one pair per chunk arena,
// laid out like MemMergeReq's (message payloads stay on the
// coordinator).
type RouteMergeReq struct {
	// Phase and Attempt are diagnostic, as in MemMergeReq.
	Phase, Attempt int
	// P is the component count; destinations and senders are in [0, P).
	P int
	// Dsts holds one destination column per chunk; Srcs the parallel
	// sender columns.
	Dsts, Srcs [][]int32
}

// RouteStats is the routing merge answer: the receive side of the
// h-relation (max fan-in over destination components). The send side is
// the column lengths, which the coordinator already has.
type RouteStats struct {
	HRecv int64
}

// Backend computes the commit-barrier merge statistics for a machine. A
// nil backend selects the built-in in-proc sharded merge. Implementations
// must be deterministic functions of the request columns (the reference
// rules are MemMerger/RouteMerger); they may fail with transport errors,
// which the engine converts into retry-or-poison per TransportError.
// MergeMem/MergeRoute are called from the coordinating goroutine only.
type Backend interface {
	// Name identifies the backend in reports and diagnostics.
	Name() string
	// MergeMem answers one shared-memory merge request.
	MergeMem(req MemMergeReq) (MergeStats, error)
	// MergeRoute answers one message-routing merge request.
	MergeRoute(req RouteMergeReq) (RouteStats, error)
	// Close releases backend resources (worker processes, sockets). It
	// must be idempotent; after Close every merge fails permanently.
	Close() error
}

// FaultRealizer is an optional Backend extension: backends with physical
// failure modes (worker processes, message frames) implement it to mirror
// injected verdicts as real faults — a crash verdict kills a worker
// process, a message-channel verdict drops or duplicates a transport
// frame. The engine calls Realize on the coordinating goroutine right
// after the injector fires and before the verdict is acted on; the
// physical effect then surfaces (if at all) as a transport error on a
// later merge, which recovers through the same retry machinery. Realize
// must not change the model-level verdict semantics.
type FaultRealizer interface {
	Realize(ic InjectCtx, v Verdict)
}

// TransportError is how a Backend reports a failed merge. Permanent
// errors poison the machine (diagnosably); transient ones schedule a
// phase retry under the machine's RetryPolicy, charging the same
// model-time backoff stall as an injected transient fault.
type TransportError struct {
	// Backend is the reporting backend's Name.
	Backend string
	// Rank is the failing worker rank, −1 when not rank-specific.
	Rank int
	// Permanent marks errors retry cannot help (backend closed, worker
	// respawn budget exhausted, handshake failure).
	Permanent bool
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	if e.Rank >= 0 {
		return fmt.Sprintf("%s backend: worker %d: %s transport fault: %v", e.Backend, e.Rank, kind, e.Err)
	}
	return fmt.Sprintf("%s backend: %s transport fault: %v", e.Backend, kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *TransportError) Unwrap() error { return e.Err }

// SetBackend attaches a commit-barrier backend to the machine; call
// before the first phase (nil restores the built-in in-proc merge). The
// machine does not own the backend: callers close it after the run.
func (c *Core) SetBackend(b Backend) { c.backend = b } //lint:commitpurity-ok pre-run configuration, like InjectFaults: set once before the first phase, never during a barrier

// BackendName returns the attached backend's name, or "inproc" for the
// built-in merge.
func (c *Core) BackendName() string {
	if c.backend == nil {
		return "inproc"
	}
	return c.backend.Name()
}

// transportFault classifies a failed backend merge for failAttempt:
// permanent transport faults poison the machine diagnosably; any other
// failure is transient, counted in FaultStats.Transport, and recovers
// through the same rollback, RetryPolicy and model-time backoff stall as
// an injected transient fault.
func (c *Core) transportFault(err error) (FaultClass, error) {
	var te *TransportError
	if errors.As(err, &te) && te.Permanent {
		return FaultPermanent, fmt.Errorf("phase %d: %w", c.curPhase, err) //lint:hotpathalloc-ok abort path: formats once, then the machine is poisoned
	}
	c.fstats.Transport++
	return FaultTransient, err
}

// MemMerger is the reference shared-memory merge: the exact contention
// and violation rules of the in-proc sharded commit, applied serially
// over one contiguous cell range [lo, hi). Backend workers run it over
// their owned range; tests run it over the whole space and compare
// against the built-in path. The scratch persists across merges, so a
// steady-state merge allocates nothing.
//
// Rules (mirroring mem.go pass 2): contention counts *processors* per
// cell — duplicate requests by one processor dedupe via the last mark;
// all reads are counted before all writes, so a positive count at a
// written cell means the forbidden read+write mix, and the smallest such
// cell is reported.
//
// The rules live in the run-fed API — Begin, then Read per processor,
// then Write per processor, then End — so a caller holding only the
// non-empty columns (a worker decoding a sparse frame) pays for the
// requests, not for p. Merge drives the same API over the chunk columns
// of a request, one run per processor.
type MemMerger struct {
	count, last []int32
	touched     []int32

	// lo and width describe the range of the merge in progress; st
	// accumulates its answer.
	lo, width int
	st        MergeStats
}

// Merge computes the merge statistics for the cells in [lo, hi);
// requests outside the range are ignored (the caller shards the columns
// or passes the full space).
func (g *MemMerger) Merge(req MemMergeReq, lo, hi int) MergeStats {
	g.Begin(lo, hi)
	for j, col := range req.Reads {
		eachRun(col, req.ReadProcs[j], g.Read)
	}
	for j, col := range req.Writes {
		eachRun(col, req.WriteProcs[j], g.Write)
	}
	return g.End()
}

// eachRun splits a chunk column into its per-processor runs through the
// parallel processor column and calls fn once per run, in column order.
func eachRun(col, procs []int32, fn func(proc int, run []int32)) {
	for j := 0; j < len(col); {
		k := j + 1
		for k < len(col) && procs[k] == procs[j] {
			k++
		}
		fn(int(procs[j]), col[j:k:k])
		j = k
	}
}

// Begin starts a merge over the cells in [lo, hi).
func (g *MemMerger) Begin(lo, hi int) {
	width := max(hi-lo, 0)
	if len(g.count) < width {
		g.count = make([]int32, width)
		g.last = make([]int32, width)
	}
	g.lo, g.width = lo, width
	g.st = MergeStats{Viol: -1}
	g.touched = g.touched[:0]
}

// Read counts processor proc's read addresses. Every Read of a merge
// precedes its first Write, and each processor's reads arrive in one
// call: the per-processor dedup mark only sees the latest processor.
func (g *MemMerger) Read(proc int, col []int32) {
	lo, width := g.lo, g.width
	count, last := g.count[:width], g.last[:width]
	touched := g.touched
	kr := g.st.KRead
	pr := int32(proc) + 1
	for _, a := range col {
		x := int(a) - lo
		if uint(x) >= uint(width) {
			continue
		}
		if last[x] == pr {
			continue
		}
		last[x] = pr
		if count[x] == 0 {
			touched = append(touched, int32(x))
		}
		count[x]++
		kr = max(kr, int64(count[x]))
	}
	g.touched = touched
	g.st.KRead = kr
}

// Write counts processor proc's write addresses. A write to a cell with
// a positive (read) count is a violation; the smallest such cell is
// kept.
func (g *MemMerger) Write(proc int, col []int32) {
	lo, width := g.lo, g.width
	count, last := g.count[:width], g.last[:width]
	touched := g.touched
	kw, viol := g.st.KWrite, g.st.Viol
	pr := -(int32(proc) + 1)
	for _, a := range col {
		x := int(a) - lo
		if uint(x) >= uint(width) {
			continue
		}
		if count[x] > 0 {
			if viol < 0 || a < viol {
				viol = a
			}
			continue
		}
		if last[x] == pr {
			continue
		}
		last[x] = pr
		if count[x] == 0 {
			touched = append(touched, int32(x))
		}
		count[x]--
		kw = max(kw, int64(-count[x]))
	}
	g.touched = touched
	g.st.KWrite, g.st.Viol = kw, viol
}

// End returns the merge statistics and clears the touched scratch for
// the next merge.
func (g *MemMerger) End() MergeStats {
	for _, x := range g.touched {
		g.count[x] = 0
		g.last[x] = 0
	}
	g.touched = g.touched[:0]
	return g.st
}

// RouteMerger is the reference routing merge: per-destination fan-in
// counting over one contiguous component range [lo, hi), mirroring the
// in-proc pass 2. Like MemMerger it is run-fed (Begin, Send per sender,
// End) and clears only the destinations it touched, so a merge costs
// O(messages). The scratch persists across merges.
type RouteMerger struct {
	recv    []int64
	touched []int32

	lo, width int
	st        RouteStats
}

// Merge returns the maximum fan-in over destinations in [lo, hi);
// destinations outside the range are ignored.
func (g *RouteMerger) Merge(req RouteMergeReq, lo, hi int) RouteStats {
	g.Begin(lo, hi)
	for j, col := range req.Dsts {
		eachRun(col, req.Srcs[j], func(_ int, run []int32) { g.Send(run) })
	}
	return g.End()
}

// Begin starts a merge over the destinations in [lo, hi).
func (g *RouteMerger) Begin(lo, hi int) {
	width := max(hi-lo, 0)
	if len(g.recv) < width {
		g.recv = make([]int64, width)
	}
	g.lo, g.width = lo, width
	g.st = RouteStats{}
	g.touched = g.touched[:0]
}

// Send counts one sender's run of destinations.
func (g *RouteMerger) Send(dsts []int32) {
	lo, width := g.lo, g.width
	recv := g.recv[:width]
	touched := g.touched
	hr := g.st.HRecv
	for _, d := range dsts {
		x := int(d) - lo
		if uint(x) >= uint(width) {
			continue
		}
		if recv[x] == 0 {
			touched = append(touched, int32(x))
		}
		recv[x]++
		hr = max(hr, recv[x])
	}
	g.touched = touched
	g.st.HRecv = hr
}

// End returns the routing statistics and clears the touched scratch.
func (g *RouteMerger) End() RouteStats {
	for _, x := range g.touched {
		g.recv[x] = 0
	}
	g.touched = g.touched[:0]
	return g.st
}
