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

// routeArena mirrors the per-chunk staging arena of the routing engine:
// message, destination and sender columns plus the chunk's maxima.
// Sends records into the arena of its chunk, so Stage and its columnar
// twin StageBatch are the arena's sanctioned writers, next to the chunk
// loop in Superstep and the arena's own begin.
type routeArena struct {
	msg      []int64
	dst, src []int32
	work     int64
}

type Sends struct {
	a    *routeArena
	work int64
}

func (s *Sends) Stage(d int32, msg int64) {
	s.a.dst = append(s.a.dst, d)
	s.a.msg = append(s.a.msg, msg)
}

func (s *Sends) StageBatch(dsts []int32, msgs []int64) {
	s.a.dst = append(s.a.dst, dsts...)
	s.a.msg = append(s.a.msg, msgs...)
}

func (s *Sends) AddWork(k int64) {
	s.work += k
}

func (s *Sends) inject(d int32, msg int64) {
	s.a.dst = append(s.a.dst, d)   // want `engine\.routeArena\.dst written in inject, outside the commit entry points`
	s.a.msg = append(s.a.msg, msg) // want `engine\.routeArena\.msg written in inject, outside the commit entry points`
	s.work = 0                     // want `engine\.Sends\.work written in inject, outside the commit entry points`
}

func (a *routeArena) begin() {
	a.msg, a.dst, a.src = a.msg[:0], a.dst[:0], a.src[:0]
	a.work = 0
}

// Superstep stamps the sender column and folds the chunk maxima once a
// component's body returns.
func Superstep(a *routeArena, s *Sends, i int32) {
	a.src = append(a.src, i)
	a.work = max(a.work, s.work)
	s.work = 0
}

// reroute edits a staged message's destination after the body returned.
func (a *routeArena) reroute(j int, d int32) {
	a.dst[j] = d // want `engine\.routeArena\.dst written in reroute, outside the commit entry points`
}

// csrInbox mirrors the routing engine's compressed-sparse-row inbox:
// filled only by the place pass.
type csrInbox struct {
	msg []int64
	off []int
}

func place(next *csrInbox, d, pos int) {
	next.off[d] = pos
}

// Route mirrors the routing engine's counting-sort scratch: the count
// pass tallies receive counts, the place pass turns them into cursors.
type Route struct {
	cnt []int
}

func (r *Route) count(dsts []int32) {
	for _, d := range dsts {
		r.cnt[d]++
	}
}

// retally edits a receive count outside the counting sort.
func (r *Route) retally(d int32) {
	r.cnt[d] = 0 // want `engine\.Route\.cnt written in retally, outside the commit entry points`
}

// redeliver patches one inbox row outside the counting sort.
func (c *csrInbox) redeliver(d int, msg int64) {
	c.msg[c.off[d]] = msg // want `engine\.csrInbox\.msg written in redeliver, outside the commit entry points`
}

// MemMergeReq mirrors the reusable backend request: commitBackend
// refills its column headers from the arenas each barrier, through a
// local pointer as the real engine does.
type MemMergeReq struct {
	Phase int
	Reads [][]int32
}

func commitBackend(q *MemMergeReq, a *memArena) {
	q.Phase = 1
	q.Reads = append(q.Reads[:0], a.rAddr)
}

// stash keeps a column header outside the barrier.
func stash(q *MemMergeReq, a *memArena) {
	q.Reads = append(q.Reads, a.wAddr) // want `engine\.MemMergeReq\.Reads written in stash, outside the commit entry points`
}

// helper is not a protected type: its fields may be written anywhere.
type helper struct {
	n int
}

func (h *helper) anywhere() {
	h.n++
	h.n = 12
}
