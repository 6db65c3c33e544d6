package engine

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sched"
)

// BitMem is the bit-packed specialization of the shared-memory phase
// engine for Boolean workloads (Parity, OR): one bit per cell instead of
// one V per cell, 64 cells to a machine word. The phase lifecycle,
// contention accounting, violation detection, fault-injection points and
// observer emission are exactly Mem's — a Boolean algorithm run on a
// BitMem machine produces the same cost report and the same event stream
// as the equivalent word-valued run — only the storage and the commit
// apply are word-level.
//
// Commit writes are sharded over the *word* space (shard key addr>>6),
// never the bit space: every word belongs to exactly one shard, so the
// parallel apply and the per-bit contention scratch touch disjoint words
// without atomics. Checkpoint/rollback and corruptCell operate on the
// packed words too, so a transient fault over n bits copies n/64 words.

// BitModel is the adapter contract of a bit-valued shared-memory
// machine: the model's naming, cost rule, error prefix and violation
// sentinel. Write commit is last-writer-wins by definition (there is no
// payload to merge), and observer payloads render as "0"/"1" — matching
// the word-valued renderers on Boolean data, which is what makes the
// bit-packed and word-valued event streams comparable.
type BitModel interface {
	Model
	// Prefix is the package error prefix ("qsm", …).
	Prefix() string
	// Violation is the package's sentinel error wrapping memory-access-
	// rule violations.
	Violation() error
}

// maxBitCells bounds the bit-address space so a packed write record
// (addr<<1 | bit) fits an int32 column entry.
const maxBitCells = 1 << 30

// BitMem is the bit-packed shared-memory phase engine. Adapters embed it
// exactly like Mem.
type BitMem struct {
	Core
	model BitModel
	words []uint64
	nbits int

	// arenas holds one request arena per phase chunk, indexed by the
	// sched.Blocks block index (see Mem.arenas).
	arenas []*bitArena
	// cb holds the reusable scratch of the sharded commit pipeline.
	cb bitBuf
	// ckWords is the word-level memory snapshot of the last Checkpoint.
	ckWords []uint64
	// bkReads/bkWrites are the reusable column-of-columns headers handed
	// to an attached Backend (the columns themselves are borrowed from the
	// chunk arenas), sized to p with the arenas.
	bkReads, bkWrites [][]int32
}

// InitBits prepares the engine for a machine with the given model,
// parameters, input size, worker budget and initial (zero-valued) memory
// size in bits.
func (m *BitMem) InitBits(model BitModel, params cost.Params, n, workers, cells int) error {
	if cells > maxBitCells {
		return fmt.Errorf("%s: bit memory of %d cells exceeds the %d-cell address space",
			model.Prefix(), cells, maxBitCells)
	}
	m.Core.Init(model, params, n, workers)
	m.model = model
	m.nbits = cells
	m.words = make([]uint64, (cells+63)/64)
	return nil
}

// MemSize returns the current shared-memory size in bits (cells).
func (m *BitMem) MemSize() int { return m.nbits }

// Words returns the live packed words for adapter-side snapshots; bit i
// of the memory is words[i/64] >> (i%64) & 1.
func (m *BitMem) Words() []uint64 { return m.words } //lint:colescape-ok documented borrow point: the live word image; callers are policed at their use sites

// Bit reads cell addr outside of any phase (host-side, uncharged);
// callers validate the address.
func (m *BitMem) Bit(addr int) bool {
	return m.words[addr>>6]>>(uint(addr)&63)&1 == 1
}

// SetBit stores cell addr outside of any phase (input loading,
// uncharged); callers validate the address.
func (m *BitMem) SetBit(addr int, v bool) {
	if v {
		m.words[addr>>6] |= 1 << (uint(addr) & 63)
	} else {
		m.words[addr>>6] &^= 1 << (uint(addr) & 63)
	}
}

// Grow extends the shared memory to at least size bits (zero valued).
// As for Mem.Grow, the word count is exact and capacity grows
// geometrically.
func (m *BitMem) Grow(size int) error {
	if size > maxBitCells {
		return fmt.Errorf("%s: bit memory of %d cells exceeds the %d-cell address space",
			m.model.Prefix(), size, maxBitCells)
	}
	if size <= m.nbits {
		return nil
	}
	m.nbits = size
	nw := (size + 63) / 64
	switch {
	case nw <= len(m.words):
	case nw <= cap(m.words):
		n := len(m.words)
		m.words = m.words[:nw]
		clear(m.words[n:])
	default:
		grown := make([]uint64, nw, max(nw, 2*cap(m.words)))
		copy(grown, m.words)
		m.words = grown
	}
	return nil
}

// bitArena is memArena for the packed representation: the request
// storage of one phase chunk, with the write column packed as
// addr<<1 | bit. It is also the pass-1 bucket type of the word-sharded
// commit; with a single shard the chunk arenas are the buckets.
type bitArena struct {
	rAddr, rProc []int32
	// writes is the packed write column: addr<<1 | bit.
	writes, wProc []int32
	// lo and hi bound the chunk's processor range [lo, hi).
	lo, hi int
	// Folded chunk maxima, as in memArena.
	mOp, mRW int64
	ctx      BitCtx
}

// begin empties the arena for a new dispatch of the chunk [lo, hi).
func (a *bitArena) begin(lo, hi int) {
	a.truncate()
	a.lo, a.hi = lo, hi
	a.mOp, a.mRW = 0, 0
}

// truncate empties the request columns, keeping their capacity.
func (a *bitArena) truncate() {
	a.rAddr, a.rProc = a.rAddr[:0], a.rProc[:0]
	a.writes, a.wProc = a.writes[:0], a.wProc[:0]
}

// BitCtx is the per-processor handle available inside a phase of a
// bit-valued machine. Like MemCtx it is valid only during its
// processor's body call and must not be retained or shared.
type BitCtx struct {
	proc int
	m    *BitMem
	a    *bitArena
	ops  int64
	fail error
}

// Proc returns this processor's index in [0, P).
func (c *BitCtx) Proc() int { return c.proc }

// Read returns the bit as of the start of the phase and charges one
// shared-memory read. The model discipline of MemCtx.Read applies
// unchanged.
func (c *BitCtx) Read(addr int) bool {
	if addr < 0 || addr >= c.m.nbits {
		c.failf("read out of range: cell %d of %d", addr, c.m.nbits)
		return false
	}
	c.a.rAddr = append(c.a.rAddr, int32(addr))
	return c.m.words[addr>>6]>>(uint(addr)&63)&1 == 1
}

// ReadWord reads the k ≤ 64 consecutive bits [addr, addr+k) in one call,
// charging k reads, and returns them packed with bit addr in the low
// position. It records exactly the request sequence of k per-cell reads
// at ascending addresses.
func (c *BitCtx) ReadWord(addr, k int) uint64 {
	if k < 0 || k > 64 || addr < 0 || addr+k > c.m.nbits {
		c.failf("read word out of range: cells [%d,%d) of %d", addr, addr+k, c.m.nbits)
		return 0
	}
	c.a.rAddr = appendSeq(c.a.rAddr, int32(addr), k)
	lo := uint(addr) & 63
	w := c.m.words[addr>>6] >> lo
	if rest := 64 - int(lo); k > rest {
		w |= c.m.words[(addr>>6)+1] << uint(rest)
	}
	if k < 64 {
		w &= 1<<uint(k) - 1
	}
	return w
}

// Write queues a write of bit to the cell, committing last-writer-wins
// at the phase barrier, and charges one write.
func (c *BitCtx) Write(addr int, bit bool) {
	if addr < 0 || addr >= c.m.nbits {
		c.failf("write out of range: cell %d of %d", addr, c.m.nbits)
		return
	}
	p := int32(addr) << 1
	if bit {
		p |= 1
	}
	c.a.writes = append(c.a.writes, p)
}

// Op charges k units of local computation.
func (c *BitCtx) Op(k int) {
	if k > 0 {
		c.ops += int64(k)
	}
}

func (c *BitCtx) failf(format string, args ...any) {
	if c.fail == nil {
		c.fail = fmt.Errorf("%s: proc %d: "+format,
			append([]any{c.m.model.Prefix(), c.proc}, args...)...)
	}
}

// Phase runs one bulk-synchronous phase over the bit memory; the
// lifecycle is identical to Mem.Phase.
func (m *BitMem) Phase(body func(c *BitCtx)) {
	if m.Err() != nil {
		return
	}
	p := m.P()
	workers := m.Workers()
	if m.arenas == nil {
		m.arenas = make([]*bitArena, sched.NumBlocks(workers, p))
		for w := range m.arenas {
			a := &bitArena{}
			a.ctx.m, a.ctx.a = m, a
			m.arenas[w] = a
		}
		if m.backend != nil {
			m.bkReads = make([][]int32, 0, p)
			m.bkWrites = make([][]int32, 0, p)
		}
	}
	if m.InjectorActive() {
		m.Checkpoint()
	}
	m.RunPhase(workers, p, func(w, lo, hi int) (int32, error) {
		a := m.arenas[w]
		a.begin(lo, hi)
		c := &a.ctx
		var nf int32
		var first error
		for i := lo; i < hi; i++ {
			if m.CrashedProc(i) {
				continue
			}
			r0, w0 := len(a.rAddr), len(a.writes)
			c.proc, c.ops, c.fail = i, 0, nil
			body(c)
			a.rProc = fillProc(a.rProc, len(a.rAddr), int32(i))
			a.wProc = fillProc(a.wProc, len(a.writes), int32(i))
			a.mOp = max(a.mOp, c.ops)
			a.mRW = max(a.mRW, int64(len(a.rAddr)-r0), int64(len(a.writes)-w0))
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

// Checkpoint snapshots the packed words and cost aggregates at a
// committed-phase boundary (n/64 word copies for n bits).
func (m *BitMem) Checkpoint() {
	m.ckWords = append(m.ckWords[:0], m.words...)
	if s, ok := any(m.model).(Snapshotter); ok {
		s.Snapshot()
	}
	m.ckCore()
}

// Rollback restores the last Checkpoint; it reports whether a checkpoint
// was set.
func (m *BitMem) Rollback() bool {
	if !m.rewindCore() {
		return false
	}
	copy(m.words, m.ckWords)
	if s, ok := any(m.model).(Snapshotter); ok {
		s.Restore()
	}
	return true
}

// corruptCell damages one committed bit (zero value, i.e. cleared) to
// model a transient memory fault; Rollback repairs it.
func (m *BitMem) corruptCell(addr int) {
	if addr >= 0 && addr < m.nbits {
		m.words[addr>>6] &^= 1 << (uint(addr) & 63)
	}
}

// ForAll runs a phase in which only processors with index < active
// participate; the rest idle.
func (m *BitMem) ForAll(active int, body func(c *BitCtx)) {
	m.Phase(func(c *BitCtx) {
		if c.proc < active {
			body(c)
		}
	})
}

// bitBuf is the reusable scratch of the bit memory's sharded phase
// commit — memBuf with a packed write column and word-space sharding.
type bitBuf struct {
	// Pass-1 buckets, indexed [chunk*numShards + shard]. Unused with a
	// single shard, where the chunk arenas are the buckets.
	bk []bitArena
	// Per-shard contention maxima and smallest violating cell (−1 = none).
	kr, kw []int64
	viol   []int32
	// Per-bit contention scratch, zeroed via the touched lists.
	count, last []int32
	touched     [][]int32
}

// ensure sizes the scratch for nm pass-1 chunks and returns the
// word-space sharding; the per-bit scratch grows geometrically.
func (b *bitBuf) ensure(nbits, nwords, workers, nm int) sched.Sharding {
	sh := sched.NewSharding(nwords, workers)
	if sh.N > 1 {
		b.bk = growLen(b.bk, nm*sh.N)
	}
	if len(b.kr) < sh.N {
		b.kr = make([]int64, sh.N)   //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.kw = make([]int64, sh.N)   //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.viol = make([]int32, sh.N) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.touched = growLen(b.touched, sh.N)
	}
	if len(b.count) < nbits {
		n := max(nbits, 2*len(b.count))
		b.count = make([]int32, n) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.last = make([]int32, n)  //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
	}
	return sh
}

// commit is Mem.commit for the packed representation: the same two
// parallel passes, contention rules, violation selection and injector
// protocol, with requests bucketed by the shard of their *word*
// (addr>>6) so the apply and scratch accesses of different shards touch
// disjoint words.
func (m *BitMem) commit(workers int) PhaseStatus {
	if m.backend != nil {
		return m.commitBackend()
	}
	arenas := m.arenas
	nm := len(arenas)
	b := &m.cb
	sh := b.ensure(m.nbits, len(m.words), workers, nm)
	ns := sh.N

	// Pass 1: requests bucketed by word shard.
	if ns > 1 {
		sched.Blocks(workers, nm, func(_, lo, hi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
			for w := lo; w < hi; w++ {
				a := arenas[w]
				bk := b.bk[w*ns : (w+1)*ns]
				for j, addr := range a.rAddr {
					k := &bk[sh.Shard(addr>>6)]
					k.rAddr = append(k.rAddr, addr)
					k.rProc = append(k.rProc, a.rProc[j])
				}
				for j, pk := range a.writes {
					k := &bk[sh.Shard((pk>>1)>>6)]
					k.writes = append(k.writes, pk)
					k.wProc = append(k.wProc, a.wProc[j])
				}
			}
		})
	}

	// Pass 2: per-shard contention counting and violation detection,
	// exactly memBuf's rules over bit addresses.
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
				for j, pk := range k.writes {
					a := pk >> 1
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
		switch v := m.consultInjector(m.nbits); v.Class {
		case FaultPermanent:
			if v.Violation {
				m.RecordErr(fmt.Errorf("%w: %w in phase %d", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
					m.model.Violation(), v.Err, m.Report().NumPhases()))
			} else {
				m.RecordErr(fmt.Errorf("%s: phase %d: %w", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
					m.model.Prefix(), m.Report().NumPhases(), v.Err))
			}
			m.finish(workers, ns, false)
			return PhaseAborted
		case FaultTransient:
			m.chargePhase(Outcome{MaxOps: mOp, MaxRW: mRW, KRead: kr, KWrite: kw})
			m.finish(workers, ns, true)
			m.corruptCell(v.Addr)
			m.Rollback()
			return PhaseRetry
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

// commitBackend is BitMem's commit barrier when a Backend is attached:
// Mem.commitBackend for the packed representation. Write columns ship
// packed (addr<<1 | bit, Packed set) and the apply unpacks them per
// chunk arena in ascending order — the same last-writer-wins winner at
// every bit as the sharded word-space replay.
func (m *BitMem) commitBackend() PhaseStatus {
	var mOp, mRW int64
	reads := m.bkReads[:0]
	writes := m.bkWrites[:0]
	for _, a := range m.arenas {
		mOp = max(mOp, a.mOp)
		mRW = max(mRW, a.mRW)
		reads = procRuns(reads, a.rAddr, a.rProc, a.lo, a.hi)
		writes = procRuns(writes, a.writes, a.wProc, a.lo, a.hi)
	}
	m.bkReads, m.bkWrites = reads, writes //lint:commitpurity-ok column-header scratch pooled by the commit barrier itself; commitBackend is the backend-path commit entry point
	st, err := m.backend.MergeMem(MemMergeReq{
		Phase: m.curPhase, Attempt: m.attempt, Cells: m.nbits, Packed: true,
		Reads: reads, Writes: writes,
	})
	if err != nil {
		return m.transportStatus(err)
	}
	if st.Viol >= 0 {
		m.RecordErr(fmt.Errorf("%w: cell %d both read and written in phase %d", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
			m.model.Violation(), st.Viol, m.Report().NumPhases()))
		return PhaseAborted
	}

	o := Outcome{MaxOps: mOp, MaxRW: mRW, KRead: st.KRead, KWrite: st.KWrite}
	if m.InjectorActive() {
		switch v := m.consultInjector(m.nbits); v.Class { //lint:injectoronce-ok commitBackend IS the commit barrier when a backend is attached; one draw per attempt, same as the built-in path
		case FaultPermanent:
			if v.Violation {
				m.RecordErr(fmt.Errorf("%w: %w in phase %d", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
					m.model.Violation(), v.Err, m.Report().NumPhases()))
			} else {
				m.RecordErr(fmt.Errorf("%s: phase %d: %w", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
					m.model.Prefix(), m.Report().NumPhases(), v.Err))
			}
			return PhaseAborted
		case FaultTransient:
			m.chargePhase(o)
			m.applyCtxWrites()
			m.corruptCell(v.Addr)
			m.Rollback()
			return PhaseRetry
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

// applyCtxWrites commits the phase's packed writes straight from the
// chunk arenas in chunk order (the backend path's replacement for the
// word-sharded replay).
func (m *BitMem) applyCtxWrites() {
	for _, a := range m.arenas {
		for _, pk := range a.writes {
			addr := pk >> 1
			if pk&1 == 1 {
				m.words[addr>>6] |= 1 << (uint32(addr) & 63) //lint:commitpurity-ok the backend path's apply half: called only from commitBackend inside the barrier
			} else {
				m.words[addr>>6] &^= 1 << (uint32(addr) & 63) //lint:commitpurity-ok the backend path's apply half: called only from commitBackend inside the barrier
			}
		}
	}
}

// bitPayload renders an observer payload; the constants match what the
// word-valued renderers produce for 0/1 data.
func bitPayload(bit bool) string {
	if bit {
		return "1"
	}
	return "0"
}

// emitRequests renders the phase's requests as observer events, grouped
// by ascending processor (reads before writes) and in issue order,
// before the writes apply.
func (m *BitMem) emitRequests() {
	for _, a := range m.arenas {
		ri, wi := 0, 0
		for ri < len(a.rProc) || wi < len(a.wProc) {
			proc := nextProc(a.rProc, ri, a.wProc, wi)
			for ; ri < len(a.rProc) && a.rProc[ri] == proc; ri++ {
				addr := a.rAddr[ri]
				m.observeRequest(Request{Proc: int(proc), Kind: KindRead, Addr: addr,
					Payload: bitPayload(m.words[addr>>6]>>(uint32(addr)&63)&1 == 1)})
			}
			for ; wi < len(a.wProc) && a.wProc[wi] == proc; wi++ {
				pk := a.writes[wi]
				m.observeRequest(Request{Proc: int(proc), Kind: KindWrite, Addr: pk >> 1,
					Payload: bitPayload(pk&1 == 1)})
			}
		}
	}
}

// finish applies the phase's writes (unless aborted) and empties the
// scratch, in parallel over word shards. Buckets hold requests in
// ascending processor order and replay in chunk order, so the winner at
// each bit is the final write of the highest-numbered processor — the
// same last-writer-wins outcome as the word-valued engine.
func (m *BitMem) finish(workers, ns int, applyWrites bool) {
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
				if applyWrites {
					for _, pk := range k.writes {
						a := pk >> 1
						if pk&1 == 1 {
							m.words[a>>6] |= 1 << (uint32(a) & 63)
						} else {
							m.words[a>>6] &^= 1 << (uint32(a) & 63)
						}
					}
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
