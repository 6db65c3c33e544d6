// Package engine is a self-contained miniature of the real engine
// package (same type names, same sanctioned-writer contract) so the
// commitpurity fixture needs no cross-module imports.
package engine

// Core mirrors the shared lifecycle state.
type Core struct {
	failN int
	err   error
}

func (c *Core) Init() {
	c.failN = 0
	c.err = nil
}

func (c *Core) RunPhase() {
	c.failN++
}

func (c *Core) peek() int {
	return c.failN // clean: reads are unrestricted
}

func (c *Core) poke() {
	c.failN = 7 // want `engine\.Core\.failN written in poke, outside the commit entry points`
}

// Mem mirrors the sharded shared-memory engine; Core is embedded as in
// the real package, so promoted writes must attribute to Core.
type Mem struct {
	Core
	mem []int64
}

func (m *Mem) InitMem(n int) {
	m.mem = make([]int64, n)
}

func (m *Mem) Phase() {
	// Function literals inherit the enclosing declaration's identity:
	// the real commit pipeline dispatches through closures.
	apply := func(i int, v int64) { m.mem[i] = v }
	apply(0, 1)
}

func (m *Mem) debugSet(i int, v int64) {
	m.mem[i] = v // want `engine\.Mem\.mem written in debugSet, outside the commit entry points`
}

func (m *Mem) promotedWrite() {
	m.failN = 3 // want `engine\.Core\.failN written in promotedWrite, outside the commit entry points`
}

func (m *Mem) bump() {
	m.failN++ // want `engine\.Core\.failN written in bump, outside the commit entry points`
}

func (m *Mem) sanctioned() {
	//lint:commitpurity-ok fixture exercises the allowlist
	m.mem[0] = 2
}

type memBuf struct {
	vals    []int64
	touched map[int]bool
}

func (b *memBuf) ensure(n int) {
	if b.touched == nil {
		b.touched = make(map[int]bool, n)
	}
}

func (b *memBuf) commit() {
	b.vals = b.vals[:0]
}

func (b *memBuf) sneak() {
	b.vals = append(b.vals, 9) // want `engine\.memBuf\.vals written in sneak, outside the commit entry points`
	(b.touched)[1] = true      // want `engine\.memBuf\.touched written in sneak, outside the commit entry points`
}

// memArena mirrors the per-chunk request arena with its struct-of-arrays
// columns; MemCtx records into the arena of its chunk, and the batch
// recorders (ReadBlock, WriteBatch, Submit, …) are sanctioned writers
// exactly like their per-cell twins.
type memArena struct {
	rAddr, rProc []int32
	wAddr, wProc []int32
	wVal         []int64
	mOp          int64
}

type MemCtx struct {
	proc int
	ops  int64
	a    *memArena
}

func (c *MemCtx) Read(a int32) {
	c.a.rAddr = append(c.a.rAddr, a)
}

func (c *MemCtx) ReadBlock(a int32, k int) {
	for i := 0; i < k; i++ {
		c.a.rAddr = append(c.a.rAddr, a+int32(i))
	}
}

func (c *MemCtx) WriteBatch(addrs []int32, vals []int64) {
	c.a.wAddr = append(c.a.wAddr, addrs...)
	c.a.wVal = append(c.a.wVal, vals...)
}

func (c *MemCtx) Submit(reads, writes []int32, vals []int64) {
	c.a.rAddr = append(c.a.rAddr, reads...)
	c.a.wAddr = append(c.a.wAddr, writes...)
	c.a.wVal = append(c.a.wVal, vals...)
}

func (c *MemCtx) Op(k int) {
	c.ops += int64(k)
}

func (c *MemCtx) bulkPoke(addrs []int32) {
	c.a.rAddr = append(c.a.rAddr, addrs...) // want `engine\.memArena\.rAddr written in bulkPoke, outside the commit entry points`
	c.proc = 0                              // want `engine\.MemCtx\.proc written in bulkPoke, outside the commit entry points`
}

// begin and truncate are the arena's own resets; Phase stamps the
// processor column and folds the chunk maxima.
func (a *memArena) begin() {
	a.truncate()
	a.mOp = 0
}

func (a *memArena) truncate() {
	a.rAddr, a.rProc = a.rAddr[:0], a.rProc[:0]
	a.wAddr, a.wProc, a.wVal = a.wAddr[:0], a.wProc[:0], a.wVal[:0]
}

// rewrite edits a recorded request after the body returned: an arena
// column mutated outside the recorders and the commit pipeline.
func (a *memArena) rewrite(j int, addr int32) {
	a.wAddr[j] = addr // want `engine\.memArena\.wAddr written in rewrite, outside the commit entry points`
	a.mOp++           // want `engine\.memArena\.mOp written in rewrite, outside the commit entry points`
}

// Sends mirrors the routing-side stager; StageBatch is the sanctioned
// columnar twin of Stage.
type Sends struct {
	dsts []int32
	msgs []int64
}

func (s *Sends) Stage(d int32, msg int64) {
	s.dsts = append(s.dsts, d)
	s.msgs = append(s.msgs, msg)
}

func (s *Sends) StageBatch(dsts []int32, msgs []int64) {
	s.dsts = append(s.dsts, dsts...)
	s.msgs = append(s.msgs, msgs...)
}

func (s *Sends) inject(d int32, msg int64) {
	s.dsts = append(s.dsts, d)   // want `engine\.Sends\.dsts written in inject, outside the commit entry points`
	s.msgs = append(s.msgs, msg) // want `engine\.Sends\.msgs written in inject, outside the commit entry points`
}

// helper is not a protected type: its fields may be written anywhere.
type helper struct {
	n int
}

func (h *helper) anywhere() {
	h.n++
	h.n = 12
}
