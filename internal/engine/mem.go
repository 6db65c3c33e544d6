package engine

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sched"
)

// MemModel is the adapter contract of a shared-memory machine (the QSM
// family and the GSM), generic over the write payload V (int64 words for
// the QSM, information sets for the GSM). It supplies the model's naming,
// cost rule and — through Apply — its write-commit semantics
// (last-writer-wins vs. info-merge).
type MemModel[V any] interface {
	Model
	// Prefix is the package error prefix ("qsm", "gsm").
	Prefix() string
	// Violation is the package's sentinel error wrapping memory-access-rule
	// violations.
	Violation() error
	// Grain is the minimum processors-per-chunk before a phase spawns
	// worker goroutines; values ≤ 1 always use the full worker budget.
	// The GSM's proof-machinery enumerations run thousands of tiny-p
	// machines and use a grain to stay on the inline fast path.
	Grain() int
	// Apply commits one bucket of writes to memory. Buckets hold requests
	// in ascending processor order and are applied in chunk order, so a
	// last-writer-wins Apply deterministically commits the final write of
	// the highest-numbered processor; a merging Apply is order-insensitive.
	Apply(mem []V, addrs []int32, vals []V)
	// Scrub drops references retained in a recycled payload bucket so the
	// free-listed scratch does not pin payload memory; a no-op for
	// pointer-free payloads.
	Scrub(vals []V)
	// Render formats a cell/payload value for observer events.
	Render(v V) string
}

// Mem is the shared-memory phase engine. Machine adapters embed it and
// gain the full phase lifecycle: Phase/ForAll dispatch, the two-pass
// sharded commit with contention accounting and violation detection,
// deterministic write application via the model's Apply, and observer
// emission.
type Mem[V any] struct {
	Core
	model MemModel[V]
	mem   []V

	// arenas holds one request arena per phase chunk, indexed by the
	// sched.Blocks block index. A phase records every request into the
	// arena of its processor's chunk, so the host objects a machine keeps
	// grow with the worker budget, not with p.
	arenas []*memArena[V]
	// cb holds the reusable scratch of the sharded commit pipeline.
	cb memBuf[V]
	// bkReq is the reusable request handed to an attached Backend: one
	// header per chunk arena, borrowing the arena columns.
	bkReq MemMergeReq
}

// InitMem prepares the engine for a machine with the given model,
// parameters, input size, worker budget and initial (zero-valued) memory
// size.
func (m *Mem[V]) InitMem(model MemModel[V], params cost.Params, n, workers, cells int) {
	m.Core.Init(model, params, n, workers)
	m.model = model
	m.mem = make([]V, cells)
}

// Data returns the live memory slice for adapter-side access (input
// loading, host-side peeks, trace snapshots).
func (m *Mem[V]) Data() []V { return m.mem } //lint:colescape-ok documented borrow point: the live cell image; callers are policed at their use sites

// MemSize returns the current shared-memory size in cells.
func (m *Mem[V]) MemSize() int { return len(m.mem) }

// Grow extends the shared memory to at least size cells (zero valued).
// Growing memory is free in the models: it allocates address space, not
// work. The length is exact; capacity grows geometrically, so an
// algorithm that grows its memory once per tree level reallocates
// O(log levels) times, not once per level.
func (m *Mem[V]) Grow(size int) {
	if size <= len(m.mem) {
		return
	}
	if size <= cap(m.mem) {
		n := len(m.mem)
		m.mem = m.mem[:size]
		clear(m.mem[n:])
		return
	}
	grown := make([]V, size, max(size, 2*cap(m.mem)))
	copy(grown, m.mem)
	m.mem = grown
}

// memArena is the request storage of one phase chunk: struct-of-arrays
// columns holding the reads (address, issuing processor) and writes
// (address, processor, value) of the chunk's processors, in ascending
// processor order and, per processor, in issue order. The chunk loop
// folds the chunk's local-cost maxima into the arena, and the arena's
// one MemCtx is reset for each processor in turn, so no per-processor
// state outlives the processor's body call.
//
// memArena is also the pass-1 bucket type of the sharded commit (only
// the columns are used there): with a single address shard the chunk
// arenas are the buckets and nothing is copied.
type memArena[V any] struct {
	rAddr, rProc []int32
	wAddr, wProc []int32
	wVal         []V
	// mOp and mRW are the chunk's maxima of local work and of requests
	// per processor.
	mOp, mRW int64
	ctx      MemCtx[V]
}

// begin empties the arena for a new dispatch of its chunk.
func (a *memArena[V]) begin() {
	a.truncate()
	a.mOp, a.mRW = 0, 0
}

// truncate empties the request columns, keeping their capacity.
func (a *memArena[V]) truncate() {
	a.rAddr, a.rProc = a.rAddr[:0], a.rProc[:0]
	a.wAddr, a.wProc, a.wVal = a.wAddr[:0], a.wProc[:0], a.wVal[:0]
}

// fillProc extends the processor column to length n with proc: the
// recorders append addresses only, and the chunk loop stamps the
// issuing processor on its run once the body returns.
func fillProc(col []int32, n int, proc int32) []int32 {
	if n == len(col) {
		return col // the common silent processor: nothing to stamp
	}
	col = growCap(col, n-len(col))
	for len(col) < n {
		col = append(col, proc)
	}
	return col
}

// MemCtx is the per-processor handle available inside a phase. It is
// valid only during its processor's body call: the engine reuses one
// context for every processor of a chunk, so a body must not retain it
// or share it with another processor.
type MemCtx[V any] struct {
	proc int
	m    *Mem[V]
	// a is the arena of the chunk the processor belongs to; the
	// recorders append to its columns.
	a    *memArena[V]
	ops  int64
	fail error
}

// Proc returns this processor's index in [0, P).
func (c *MemCtx[V]) Proc() int { return c.proc }

// Read returns the contents of the cell as of the start of the phase and
// charges one shared-memory read.
//
// Model discipline: the value of a read may be used only in a subsequent
// phase. The simulator returns the start-of-phase snapshot, so using the
// value immediately is observationally identical to buffering it;
// however, algorithms must not let one read's value choose another
// address read in the same phase (requests must be a function of
// start-of-phase state).
func (c *MemCtx[V]) Read(addr int) V {
	if addr < 0 || addr >= len(c.m.mem) {
		c.failf("read out of range: cell %d of %d", addr, len(c.m.mem))
		var zero V
		return zero
	}
	c.a.rAddr = append(c.a.rAddr, int32(addr))
	return c.m.mem[addr] //lint:colescape-ok single-cell read: engine instantiations use scalar V, so the cell is returned by value
}

// Write queues a write of val to the cell, committing at the phase
// barrier under the model's Apply semantics, and charges one write.
func (c *MemCtx[V]) Write(addr int, val V) {
	if addr < 0 || addr >= len(c.m.mem) {
		c.failf("write out of range: cell %d of %d", addr, len(c.m.mem))
		return
	}
	c.a.wAddr = append(c.a.wAddr, int32(addr))
	c.a.wVal = append(c.a.wVal, val)
}

// Op charges k units of local computation (free under cost rules that
// ignore m_op, such as the GSM's).
func (c *MemCtx[V]) Op(k int) {
	if k > 0 {
		c.ops += int64(k)
	}
}

func (c *MemCtx[V]) failf(format string, args ...any) {
	if c.fail == nil {
		c.fail = fmt.Errorf("%s: proc %d: "+format, //lint:hotpathalloc-ok abort path: formats once, then the context is poisoned
			append([]any{c.m.model.Prefix(), c.proc}, args...)...)
	}
}

// phaseWorkers returns the effective worker count for this machine's p
// under the model's grain.
func (m *Mem[V]) phaseWorkers() int {
	g := m.model.Grain()
	if g <= 1 {
		return m.Workers()
	}
	return min(m.Workers(), (m.P()+g-1)/g)
}

// Phase runs one bulk-synchronous phase: body is invoked once per
// processor (concurrently over contiguous chunks), requests are merged at
// the barrier by the sharded commit pipeline, the phase is charged under
// the model's cost rule, and writes commit. Phase is a no-op once the
// machine has erred.
func (m *Mem[V]) Phase(body func(c *MemCtx[V])) {
	if m.Err() != nil {
		return
	}
	p := m.P()
	workers := m.phaseWorkers()
	if m.arenas == nil {
		m.arenas = make([]*memArena[V], sched.NumBlocks(workers, p))
		for w := range m.arenas {
			a := &memArena[V]{}
			a.ctx.m, a.ctx.a = m, a
			m.arenas[w] = a
		}
	}
	m.RunPhase(workers, p, func(w, lo, hi int) (int32, error) {
		a := m.arenas[w]
		a.begin()
		c := &a.ctx
		var nf int32
		var first error
		for i := lo; i < hi; i++ {
			if m.CrashedProc(i) {
				// Masked processors idle: no body, no requests. The
				// crash flag is written at the previous phase's barrier,
				// so masking is visible here race-free.
				continue
			}
			r0, w0 := len(a.rAddr), len(a.wAddr)
			c.proc, c.ops, c.fail = i, 0, nil
			body(c)
			a.rProc = fillProc(a.rProc, len(a.rAddr), int32(i))
			a.wProc = fillProc(a.wProc, len(a.wAddr), int32(i))
			a.mOp = max(a.mOp, c.ops)
			a.mRW = max(a.mRW, int64(len(a.rAddr)-r0), int64(len(a.wAddr)-w0))
			if c.fail != nil {
				if first == nil {
					first = c.fail
				}
				nf++
			}
		}
		return nf, first //lint:colescape-ok first is the earliest processor failure, a fresh error from failf; it does not alias pooled storage
	}, func() PhaseStatus { return m.commit(workers) })
}

// ForAll is a convenience wrapper: it runs a phase in which only
// processors with index < active participate; the rest idle.
func (m *Mem[V]) ForAll(active int, body func(c *MemCtx[V])) {
	m.Phase(func(c *MemCtx[V]) {
		if c.proc < active {
			body(c)
		}
	})
}

// memBuf is the reusable scratch of the sharded phase commit. Requests
// are first bucketed by address shard (one bucket per chunk × shard,
// filled in processor order), then each shard is counted and resolved
// independently over its private slice of the address-space scratch
// arrays. Everything is retained across phases, so a steady-state phase
// allocates nothing here.
type memBuf[V any] struct {
	// Pass-1 buckets, indexed [chunk*numShards + shard]. Unused with a
	// single shard, where the chunk arenas are the buckets.
	bk []memArena[V]
	// Per-shard contention maxima and smallest violating cell (−1 = none).
	kr, kw []int64
	viol   []int32
	// Address-space scratch: count holds +readers/−writers per cell, last
	// the dedup mark (proc+1 for reads, −(proc+1) for writes); both are
	// zeroed via the per-shard touched lists after every phase.
	count, last []int32
	touched     [][]int32
}

// ensure sizes the scratch for the current memory size and nm pass-1
// chunks and returns the sharding. The address-space scratch grows
// geometrically, so memory that grows level by level reallocates it
// O(log levels) times.
func (b *memBuf[V]) ensure(memSize, workers, nm int) sched.Sharding {
	sh := sched.NewSharding(memSize, workers)
	if sh.N > 1 {
		b.bk = growLen(b.bk, nm*sh.N)
	}
	if len(b.kr) < sh.N {
		b.kr = make([]int64, sh.N)   //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.kw = make([]int64, sh.N)   //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.viol = make([]int32, sh.N) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.touched = growLen(b.touched, sh.N)
	}
	if len(b.count) < memSize {
		n := max(memSize, 2*len(b.count))
		b.count = make([]int32, n) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.last = make([]int32, n)  //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
	}
	return sh
}

// growLen extends s with zero elements to length at least n.
func growLen[T any](s []T, n int) []T {
	var zero T
	for len(s) < n {
		s = append(s, zero)
	}
	return s
}

// commit merges the chunk arenas, validates access rules, consults the
// fault injector, charges the phase and applies writes. The merge runs
// in two parallel passes: bucket requests by address shard (over
// chunks; skipped with one shard, where the arenas are the buckets),
// then count contention, resolve winners and detect violations per
// shard. Results are identical for every Workers setting: arenas and
// buckets hold requests in processor order and are scanned in chunk
// order, and the injector consult happens exactly once per attempt on
// the coordinating goroutine.
func (m *Mem[V]) commit(workers int) PhaseStatus {
	if m.backend != nil {
		return m.commitBackend()
	}
	arenas := m.arenas
	nm := len(arenas)
	b := &m.cb
	sh := b.ensure(len(m.mem), workers, nm)
	ns := sh.N

	// Pass 1: requests bucketed by address shard.
	if ns > 1 {
		sched.Blocks(workers, nm, func(_, lo, hi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
			for w := lo; w < hi; w++ {
				a := arenas[w]
				bk := b.bk[w*ns : (w+1)*ns]
				for j, addr := range a.rAddr {
					k := &bk[sh.Shard(addr)]
					k.rAddr = append(k.rAddr, addr)
					k.rProc = append(k.rProc, a.rProc[j])
				}
				for j, addr := range a.wAddr {
					k := &bk[sh.Shard(addr)]
					k.wAddr = append(k.wAddr, addr)
					k.wProc = append(k.wProc, a.wProc[j])
					k.wVal = append(k.wVal, a.wVal[j])
				}
			}
		})
	}

	// Pass 2: per-shard contention counting and violation detection.
	// Contention is the number of *processors* accessing a cell (paper
	// definition): duplicate requests by one processor dedupe via the last
	// mark (they still count toward its m_rw). Within a shard all reads
	// are scanned before all writes, so a positive count at a written cell
	// means the cell was read this phase — the forbidden read+write mix.
	sched.Blocks(workers, ns, func(_, slo, shi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
		for s := slo; s < shi; s++ {
			var kr, kw int64
			viol := int32(-1)
			touched := b.touched[s][:0]
			for w := 0; w < nm; w++ {
				k := arenas[w]
				if ns > 1 {
					k = &b.bk[w*ns+s]
				}
				procs := k.rProc
				for j, a := range k.rAddr {
					pr := procs[j] + 1
					if b.last[a] == pr {
						continue
					}
					b.last[a] = pr
					if b.count[a] == 0 {
						touched = append(touched, a)
					}
					b.count[a]++
					kr = max(kr, int64(b.count[a]))
				}
			}
			for w := 0; w < nm; w++ {
				k := arenas[w]
				if ns > 1 {
					k = &b.bk[w*ns+s]
				}
				procs := k.wProc
				for j, a := range k.wAddr {
					if b.count[a] > 0 {
						if viol < 0 || a < viol {
							viol = a
						}
						continue
					}
					pr := -(procs[j] + 1)
					if b.last[a] == pr {
						continue
					}
					b.last[a] = pr
					if b.count[a] == 0 {
						touched = append(touched, a)
					}
					b.count[a]--
					kw = max(kw, int64(-b.count[a]))
				}
			}
			b.kr[s], b.kw[s], b.viol[s] = kr, kw, viol
			b.touched[s] = touched
		}
	})

	var mOp, mRW int64
	for _, a := range arenas {
		mOp = max(mOp, a.mOp)
		mRW = max(mRW, a.mRW)
	}
	var kr, kw int64
	violAddr := int32(-1)
	for s := 0; s < ns; s++ {
		kr = max(kr, b.kr[s])
		kw = max(kw, b.kw[s])
		if b.viol[s] >= 0 && (violAddr < 0 || b.viol[s] < violAddr) {
			violAddr = b.viol[s]
		}
	}
	if violAddr >= 0 {
		m.RecordErr(fmt.Errorf("%w: cell %d both read and written in phase %d", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
			m.model.Violation(), violAddr, m.Report().NumPhases()))
		m.finish(workers, ns, false)
		return PhaseAborted
	}

	if m.InjectorActive() {
		if v := m.consultInjector(len(m.mem)); v.fails() {
			m.finish(workers, ns, false)
			return m.failAttempt(v.Class, m.verdictErr(v))
		}
	}

	pc := m.chargePhase(Outcome{MaxOps: mOp, MaxRW: mRW, KRead: kr, KWrite: kw})
	if m.Observing() {
		m.emitRequests()
	}
	m.finish(workers, ns, true)
	m.observePhaseEnd(pc)
	return PhaseCommitted
}

// commitBackend is the commit barrier when a Backend is attached: the
// chunk arenas' request columns are handed (borrowed, as they are) to
// the backend for contention counting and violation detection, and the
// value-carrying half of the barrier — charging, observer emission and
// the write apply — stays here. Writes apply per chunk arena in
// ascending order, which commits the same winner at every cell as the
// built-in bucket replay (last write of the highest-numbered processor;
// merging Applies are order-insensitive). A failed merge fails the
// attempt like a fault verdict does (see transportFault).
func (m *Mem[V]) commitBackend() PhaseStatus {
	var mOp, mRW int64
	q := &m.bkReq
	q.Phase, q.Attempt, q.Cells, q.P = m.curPhase, m.attempt, len(m.mem), m.P()
	q.Reads, q.ReadProcs = q.Reads[:0], q.ReadProcs[:0]
	q.Writes, q.WriteProcs = q.Writes[:0], q.WriteProcs[:0]
	for _, a := range m.arenas {
		mOp = max(mOp, a.mOp)
		mRW = max(mRW, a.mRW)
		q.Reads, q.ReadProcs = append(q.Reads, a.rAddr), append(q.ReadProcs, a.rProc)
		q.Writes, q.WriteProcs = append(q.Writes, a.wAddr), append(q.WriteProcs, a.wProc)
	}
	st, err := m.backend.MergeMem(*q)
	if err != nil {
		return m.failAttempt(m.transportFault(err))
	}
	if st.Viol >= 0 {
		m.RecordErr(fmt.Errorf("%w: cell %d both read and written in phase %d", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
			m.model.Violation(), st.Viol, m.Report().NumPhases()))
		return PhaseAborted
	}

	o := Outcome{MaxOps: mOp, MaxRW: mRW, KRead: st.KRead, KWrite: st.KWrite}
	if m.InjectorActive() {
		if v := m.consultInjector(len(m.mem)); v.fails() { //lint:injectoronce-ok commitBackend IS the commit barrier when a backend is attached; one draw per attempt, same as the built-in path
			return m.failAttempt(v.Class, m.verdictErr(v))
		}
	}

	pc := m.chargePhase(o)
	if m.Observing() {
		m.emitRequests()
	}
	m.applyCtxWrites()
	m.observePhaseEnd(pc)
	return PhaseCommitted
}

// verdictErr is the error a failing verdict fails the attempt with: a
// transient verdict's own (the retries-exhausted message wraps it), a
// permanent one's in the package wording. Injected contention-rule
// violations wrap the model's own sentinel (multi-%w), so they satisfy
// errors.Is for both the fault sentinel and the model's Violation —
// exactly like a real access-rule breach.
func (m *Mem[V]) verdictErr(v Verdict) error {
	switch {
	case v.Class == FaultTransient:
		return v.Err
	case v.Violation:
		return fmt.Errorf("%w: %w in phase %d", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
			m.model.Violation(), v.Err, m.Report().NumPhases())
	}
	return fmt.Errorf("%s: phase %d: %w", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
		m.model.Prefix(), m.Report().NumPhases(), v.Err)
}

// applyCtxWrites commits the phase's writes straight from the chunk
// arenas in chunk order (the backend path's replacement for the sharded
// bucket replay). Each arena holds its writes in ascending processor
// order, so one Apply per arena keeps the replay contract.
func (m *Mem[V]) applyCtxWrites() {
	for _, a := range m.arenas {
		if len(a.wAddr) > 0 {
			m.model.Apply(m.mem, a.wAddr, a.wVal)
		}
	}
}

// nextProc returns the lowest processor with requests left in the read
// column from ri on or the write column from wi on; one of them must
// have some.
func nextProc(rProc []int32, ri int, wProc []int32, wi int) int32 {
	switch {
	case ri == len(rProc):
		return wProc[wi]
	case wi == len(wProc):
		return rProc[ri]
	}
	return min(rProc[ri], wProc[wi])
}

// emitRequests renders the phase's requests as observer events, grouped
// by ascending processor (reads before writes) and in issue order. It
// runs before the writes apply, so read payloads render the
// start-of-phase contents the readers actually observed.
func (m *Mem[V]) emitRequests() {
	for _, a := range m.arenas {
		ri, wi := 0, 0
		for ri < len(a.rProc) || wi < len(a.wProc) {
			proc := nextProc(a.rProc, ri, a.wProc, wi)
			for ; ri < len(a.rProc) && a.rProc[ri] == proc; ri++ {
				addr := a.rAddr[ri]
				m.observeRequest(Request{Proc: int(proc), Kind: KindRead, Addr: addr,
					Payload: m.model.Render(m.mem[addr])})
			}
			for ; wi < len(a.wProc) && a.wProc[wi] == proc; wi++ {
				m.observeRequest(Request{Proc: int(proc), Kind: KindWrite, Addr: a.wAddr[wi],
					Payload: m.model.Render(a.wVal[wi])})
			}
		}
	}
}

// finish applies the phase's writes (unless aborted by a violation) via
// the model's Apply and empties the scratch for the next phase, both in
// parallel over shards. Buckets hold requests in ascending processor
// order and are replayed in chunk order, giving Apply its deterministic
// replay contract. With several shards the chunk arenas are not
// buckets; begin empties them at the next dispatch.
func (m *Mem[V]) finish(workers, ns int, applyWrites bool) {
	b := &m.cb
	arenas := m.arenas
	nm := len(arenas)
	sched.Blocks(workers, ns, func(_, slo, shi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
		for s := slo; s < shi; s++ {
			for w := 0; w < nm; w++ {
				k := arenas[w]
				if ns > 1 {
					k = &b.bk[w*ns+s]
				}
				if len(k.wAddr) > 0 {
					if applyWrites {
						m.model.Apply(m.mem, k.wAddr, k.wVal)
					}
					m.model.Scrub(k.wVal)
				}
				k.truncate()
			}
			for _, a := range b.touched[s] {
				b.count[a] = 0
				b.last[a] = 0
			}
			b.touched[s] = b.touched[s][:0]
		}
	})
}
