// Fixture: packed addr<<1|bit discipline — guarded packing is clean,
// unguarded or partially guarded packing, raw staging, raw arithmetic
// and raw indexing are flagged, and the unpack/copy/reset idioms stay
// silent.
package a

// bitArena holds the packed write column; BitCtx records into it.
type bitArena struct {
	writes []int32
}

type BitCtx struct {
	a     *bitArena
	nbits int
}

// Write is the sanctioned idiom: range-check on every path, then pack.
func (c *BitCtx) Write(addr, bit int32) {
	if addr < 0 || int(addr) >= c.nbits {
		return
	}
	c.a.writes = append(c.a.writes, addr<<1|bit)
}

// WriteSplit builds the packed value across statements: the pack site
// is still guard-checked through the definition.
func (c *BitCtx) WriteSplit(addr int32) {
	if addr < 0 || int(addr) >= c.nbits {
		return
	}
	pk := addr << 1
	pk |= 1
	c.a.writes = append(c.a.writes, pk)
}

func (c *BitCtx) WriteUnchecked(addr, bit int32) {
	c.a.writes = append(c.a.writes, addr<<1|bit) // want `packed address "addr" is not range-checked on every path`
}

// WritePartial guards only one branch: the unguarded path still
// reaches the pack site.
func (c *BitCtx) WritePartial(addr, bit int32, flag bool) {
	if flag {
		if int(addr) >= c.nbits {
			return
		}
	}
	c.a.writes = append(c.a.writes, addr<<1|bit) // want `not range-checked on every path`
}

// WriteComputed packs a call result: nothing to anchor a guard to.
func (c *BitCtx) WriteComputed() {
	c.a.writes = append(c.a.writes, next()<<1) // want `not a locally range-checked variable`
}

func next() int32 { return 0 }

// stageRaw smuggles an unpacked value into the column.
func (c *BitCtx) stageRaw(v int32) {
	c.a.writes = append(c.a.writes, v) // want `not derived as addr<<1\|bit`
}

// bulk appends a raw slice wholesale into the packed column.
func (c *BitCtx) bulk(raw []int32) {
	c.a.writes = append(c.a.writes, raw...) // want `bulk append into a packed write column from a non-packed slice`
}

// merge copies column-to-column: packed stays packed.
func merge(dst, src *BitCtx) {
	dst.a.writes = append(dst.a.writes, src.a.writes...)
}

// restage moves one packed element between columns: still packed.
func restage(dst, src *BitCtx, k int) {
	pk := src.a.writes[k]
	dst.a.writes = append(dst.a.writes, pk)
}

// reset is the pooled-reuse idiom: the empty sub-slice is still the
// packed column.
func (c *BitCtx) reset() {
	c.a.writes = c.a.writes[:0]
}

// unpack is the sanctioned consumption: >>1 and &1 only.
func unpack(c *BitCtx, k int) (int32, int32) {
	pk := c.a.writes[k]
	return pk >> 1, pk & 1
}

// shard computes a shard key from the packed value without unpacking.
func shard(c *BitCtx, k int) int32 {
	pk := c.a.writes[k]
	return pk >> 7 // want `raw >> arithmetic on a packed addr<<1\|bit value`
}

// lookup indexes a table with the packed value directly.
func lookup(c *BitCtx, tab []int64, k int) int64 {
	pk := c.a.writes[k]
	return tab[pk] // want `packed addr<<1\|bit value used as a raw index`
}

// fanOut mirrors the engine's sched.Blocks shape: the packed-value
// discipline applies inside worker closures too (each literal gets its
// own graph).
func fanOut(c *BitCtx, blocks func(int, func(int, int))) {
	blocks(4, func(lo, hi int) {
		for _, pk := range c.a.writes[lo:hi] {
			_ = pk >> 9 // want `raw >> arithmetic on a packed addr<<1\|bit value`
		}
	})
	blocks(4, func(lo, hi int) {
		for _, pk := range c.a.writes[lo:hi] {
			_, _ = pk>>1, pk&1
		}
	})
}

// debugScale carries a reasoned allowlist: no finding.
func debugScale(c *BitCtx, k int) int32 {
	pk := c.a.writes[k]
	return pk * 2 //lint:bitaddr-ok fixture: debug-only scaling of the raw packed word
}
