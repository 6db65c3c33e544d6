// Package proc is the multi-process commit-barrier backend: a
// coordinator fork/execs worker subprocesses (ranks 0..W−1) and ships
// each barrier merge to them as length-prefixed frames over a Unix-domain
// socket, merging the per-rank answers in rank order. Workers own
// contiguous slices of the cell (or component) space and run the engine's
// reference mergers (engine.MemMerger / engine.RouteMerger) over their
// slice, so the merged statistics are identical to the in-proc path — a
// fault-free proc run produces byte-equal event streams and cost reports
// to an inproc run at any worker count.
//
// The robustness layer maps the model's fault verdicts onto real
// transport faults (see Coordinator.Realize): crash verdicts SIGKILL a
// worker process, message-channel verdicts drop or duplicate a request
// frame. Physical faults surface as transport errors at the barrier and
// recover through the engine's RetryPolicy — with model-time backoff
// stalls — while dead workers respawn under a capped real-time
// exponential backoff.
package proc

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/engine"
)

// Frame format: a 4-byte little-endian payload length, then the payload;
// payload byte 0 is the frame type. Integers inside payloads are
// little-endian (u32/i32/i64).
//
// Request frames are sparse: after their fixed header they carry run
// sections. A section is a u32 run count, then one run per processor
// that has at least one entry in the receiving rank's range, in strictly
// increasing processor order: proc u32, count u32, then count i32
// entries. A frame's size is O(entries in the rank's range), never
// O(processors).
const (
	// fHello (worker → coordinator), payload: rank u32. First frame on a
	// fresh connection.
	fHello byte = 1
	// fMemReq (coordinator → worker), payload: phase u32, attempt u32,
	// cells u32, lo u32, hi u32, nprocs u32, then a read run section and
	// a write run section (see above). Runs hold only the entries whose
	// cell lies in the worker's [lo, hi) range.
	fMemReq byte = 2
	// fMemRes (worker → coordinator), payload: phase u32, attempt u32,
	// kread i64, kwrite i64, viol i32 (−1 = clean).
	fMemRes byte = 3
	// fRouteReq (coordinator → worker), payload: phase u32, attempt u32,
	// p u32, lo u32, hi u32, nsenders u32, then one run section of
	// destination entries in the worker's [lo, hi) component range.
	fRouteReq byte = 4
	// fRouteRes (worker → coordinator), payload: phase u32, attempt u32,
	// hrecv i64.
	fRouteRes byte = 5
	// fBeat (worker → coordinator), payload: rank u32. Liveness heartbeat.
	fBeat byte = 6
	// fShutdown (coordinator → worker), empty payload: clean exit request.
	fShutdown byte = 7
)

// maxFrame bounds an incoming frame's payload so a corrupt length prefix
// cannot drive an arbitrary allocation.
const maxFrame = 1 << 28

// enc builds one outgoing frame in a reusable buffer. reset starts the
// frame, the appenders add payload, finish backpatches the length prefix
// and returns the wire bytes (valid until the next reset).
type enc struct {
	b []byte
}

func (e *enc) reset(t byte) {
	e.b = append(e.b[:0], 0, 0, 0, 0, t)
}

func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) i32(v int32) { e.u32(uint32(v)) }
func (e *enc) i64(v int64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v))
}

// mark reserves a u32 slot for count backpatching and returns its offset.
func (e *enc) mark() int {
	off := len(e.b)
	e.b = append(e.b, 0, 0, 0, 0)
	return off
}

// patch fills a reserved slot.
func (e *enc) patch(off int, v uint32) {
	binary.LittleEndian.PutUint32(e.b[off:off+4], v)
}

// finish backpatches the frame length and returns the complete frame.
func (e *enc) finish() []byte {
	binary.LittleEndian.PutUint32(e.b[:4], uint32(len(e.b)-4))
	return e.b
}

// dec walks one received payload; decode errors latch in err and turn
// every later accessor into a zero-value no-op, so call sites check err
// once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("proc: truncated frame: %s at offset %d of %d", what, d.off, len(d.b))
	}
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) i32() int32 { return int32(d.u32()) }

func (d *dec) i64() int64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("i64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return int64(v)
}

// col decodes a u32-counted i32 column into dst (reused, truncated).
func (d *dec) col(dst []int32) []int32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+4*n > len(d.b) {
		d.fail(fmt.Sprintf("column of %d entries", n))
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], n)[:n]
	b := d.b[d.off : d.off+4*n]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	d.off += 4 * n
	return dst
}

// rangeFor splits a space of cells (or components) into contiguous
// per-rank slices: rank r of ranks owns [r·cells/ranks, (r+1)·cells/ranks).
func rangeFor(rank, cells, ranks int) (lo, hi int) {
	return rank * cells / ranks, (rank + 1) * cells / ranks
}

// rankOf is rangeFor's inverse: the rank whose slice holds cell a, for
// 0 ≤ a < cells. It is the largest r with r·cells/ranks ≤ a, i.e.
// ⌊((a+1)·ranks − 1) / cells⌋.
func rankOf(a, cells, ranks int) int {
	if ranks == 1 {
		return 0
	}
	return int((int64(a+1)*int64(ranks) - 1) / int64(cells))
}

// reqFrames builds every rank's request frame for one merge in a single
// pass over the request columns. The per-rank buffers persist across
// merges, so steady-state encoding allocates nothing.
type reqFrames struct {
	encs []enc
	open []openRun
	// out holds each rank's finished frame (valid until the next build).
	out [][]byte
}

// openRun is one rank's run section under construction: the offset of
// the section's run-count slot, the runs so far, and the processor and
// count slot of the run being extended (proc −1 = none yet).
type openRun struct {
	sect, runs int
	proc, cnt  int
	n          uint32
}

func newReqFrames(ranks int) reqFrames {
	return reqFrames{
		encs: make([]enc, ranks),
		open: make([]openRun, ranks),
		out:  make([][]byte, ranks),
	}
}

// mem builds every rank's fMemReq frame.
func (f *reqFrames) mem(req engine.MemMergeReq) {
	ranks := len(f.encs)
	for r := range f.encs {
		lo, hi := rangeFor(r, req.Cells, ranks)
		e := &f.encs[r]
		e.reset(fMemReq)
		e.u32(uint32(req.Phase))
		e.u32(uint32(req.Attempt))
		e.u32(uint32(req.Cells))
		e.u32(uint32(lo))
		e.u32(uint32(hi))
		e.u32(uint32(req.P))
	}
	f.section(req.Reads, req.ReadProcs, req.Cells)
	f.section(req.Writes, req.WriteProcs, req.Cells)
	f.finish()
}

// route builds every rank's fRouteReq frame.
func (f *reqFrames) route(req engine.RouteMergeReq) {
	ranks := len(f.encs)
	for r := range f.encs {
		lo, hi := rangeFor(r, req.P, ranks)
		e := &f.encs[r]
		e.reset(fRouteReq)
		e.u32(uint32(req.Phase))
		e.u32(uint32(req.Attempt))
		e.u32(uint32(req.P))
		e.u32(uint32(lo))
		e.u32(uint32(hi))
		e.u32(uint32(req.P))
	}
	f.section(req.Dsts, req.Srcs, req.P)
	f.finish()
}

// section appends one run section to every rank's frame from a
// request's chunk columns: cols holds the entries, procs the parallel
// processor columns. Each entry goes to the rank owning its cell;
// entries outside [0, cells) go nowhere. A rank's run is extended while
// the processor stays the same and a new one opens when it changes, so
// the walk costs the entries, not the processors. The engine's chunk
// arenas list processor ids in ascending order, so each rank's runs come
// out in strictly increasing processor order.
func (f *reqFrames) section(cols, procs [][]int32, cells int) {
	ranks := len(f.encs)
	for r := range f.encs {
		f.open[r] = openRun{sect: f.encs[r].mark(), proc: -1}
	}
	for j, col := range cols {
		pc := procs[j]
		for k, v := range col {
			a := int(v)
			if a < 0 || a >= cells {
				continue
			}
			r := rankOf(a, cells, ranks)
			o, e := &f.open[r], &f.encs[r]
			if i := int(pc[k]); o.proc != i {
				if o.proc >= 0 {
					e.patch(o.cnt, o.n)
				}
				o.proc, o.n = i, 0
				o.runs++
				e.u32(uint32(i))
				o.cnt = e.mark()
			}
			e.i32(v)
			o.n++
		}
	}
	for r := range f.encs {
		o, e := &f.open[r], &f.encs[r]
		if o.proc >= 0 {
			e.patch(o.cnt, o.n)
		}
		e.patch(o.sect, uint32(o.runs))
	}
}

// finish backpatches every rank's length prefix into out.
func (f *reqFrames) finish() {
	for r := range f.encs {
		f.out[r] = f.encs[r].finish()
	}
}

// writeFrame sends one complete frame (as returned by enc.finish).
func writeFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame payload into buf (grown as needed) and
// returns the payload slice (valid until the next readFrame on buf).
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, buf, fmt.Errorf("proc: invalid frame length %d", n)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}
