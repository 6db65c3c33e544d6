// Fixture: pooled-column borrows escaping via every sink class, plus
// the copy idioms and the reasoned allowlist that must stay silent.
package a

type Mem struct {
	mem  []int64
	free []int64
}

type MemCtx struct {
	m *Mem
}

// ReadBlock is a borrow point: it hands out an alias into pooled
// storage, so its own return is the first escape the analyzer sees.
func (c *MemCtx) ReadBlock(addr, k int) []int64 {
	return c.m.mem[addr : addr+k] // want `column sub-slice, derived from pooled engine storage, escapes the phase via return value`
}

// Data is the documented accessor exemption: reason-carrying allowlist,
// callers are policed at their use sites instead.
func (m *Mem) Data() []int64 {
	return m.mem //lint:colescape-ok documented borrow point: callers are policed at their use sites
}

type holder struct {
	ref []int64
}

var global []int64

// keep stores its second parameter beyond the call: the "e1" fact is
// recorded silently here and reported at tainted call sites.
func keep(h *holder, b []int64) {
	h.ref = b
}

func stash(c *MemCtx, h *holder, ch chan []int64) {
	b := c.ReadBlock(0, 4)
	h.ref = b  // want `"b", derived from pooled engine storage, escapes the phase via store to field ref`
	global = b // want `"b", derived from pooled engine storage, escapes the phase via store to package variable global`
	ch <- b    // want `"b", derived from pooled engine storage, escapes the phase via channel send`
	keep(h, b) // want `"b", derived from pooled engine storage, escapes the phase via call to keep, which retains its argument`
}

func leak(c *MemCtx) []int64 {
	b := c.ReadBlock(0, 4)
	return b // want `"b", derived from pooled engine storage, escapes the phase via return value`
}

// snapshot element-copies the borrow: copies are not escapes.
func snapshot(c *MemCtx) []int64 {
	b := c.ReadBlock(0, 4)
	out := make([]int64, 0, len(b))
	out = append(out, b...)
	return out
}

// sum ranges scalar cells out of the borrow: scalars are copies.
func sum(c *MemCtx) int64 {
	var s int64
	for _, v := range c.ReadBlock(0, 4) {
		s += v
	}
	return s
}

// spawn stashes a borrow from inside a worker closure: escape sinks are
// checked inside function literals too (each gets its own graph).
func spawn(c *MemCtx, h *holder, run func(func())) {
	run(func() {
		b := c.ReadBlock(0, 4)
		h.ref = b // want `"b", derived from pooled engine storage, escapes the phase via store to field ref`
	})
}

// recycle writes INTO a pooled field: pool management, not an escape
// (commitpurity owns that contract).
func recycle(m *Mem, b []int64) {
	m.free = b
	_ = m.free
}

// memArena mirrors the engine's per-chunk request arena: its columns
// are pooled and rewritten by the next phase.
type memArena struct {
	rAddr []int32
}

type colHolder struct {
	cols []int32
}

// keepReads retains a chunk's read column past the phase.
func keepReads(a *memArena, h *colHolder) {
	h.cols = a.rAddr // want `field rAddr, derived from pooled engine storage, escapes the phase via store to field cols`
}

// runOf returns a sub-slice of the column: still a borrow.
func runOf(a *memArena, j, k int) []int32 {
	return a.rAddr[j:k] // want `column sub-slice, derived from pooled engine storage, escapes the phase via return value`
}

// countReads only reads the column: no escape.
func countReads(a *memArena) int {
	return len(a.rAddr)
}

// routeArena mirrors the routing engine's per-chunk staging arena; a
// backend request borrows its columns for one merge call only.
type routeArena struct {
	dst, src []int32
}

// keepDsts retains a chunk's destination column past the superstep.
func keepDsts(a *routeArena, h *colHolder) {
	h.cols = a.dst // want `field dst, derived from pooled engine storage, escapes the phase via store to field cols`
}

// csrInbox mirrors the ping-ponged CSR inbox: one flat message column
// and its row offsets.
type csrInbox struct {
	msg []int64
	off []int
}

// row returns one component's deliveries: a borrow of the flat column.
func row(c *csrInbox, d int) []int64 {
	return c.msg[c.off[d]:c.off[d+1]] // want `column sub-slice, derived from pooled engine storage, escapes the phase via return value`
}

// regrow stores a resized column back INTO its own pooled field: pool
// management, not an escape.
func regrow(c *csrInbox, n int) {
	c.msg = c.msg[:n]
}
