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
// payload byte 0 is the frame type, and the frame's fixed fields follow
// it in the order its header struct's fields method walks them.
// Integers inside payloads are little-endian (u32/i32/i64).
//
// Request frames are sparse: after their fixed header they carry run
// sections. A section is a u32 run count, then one run per processor
// that has at least one entry in the receiving rank's range, in strictly
// increasing processor order: proc u32, count u32, then count i32
// entries. A frame's size is O(entries in the rank's range), never
// O(processors).
const (
	// fHello (worker → coordinator): rankHdr. First frame on a fresh
	// connection.
	fHello byte = 1
	// fMemReq (coordinator → worker): memReqHdr, then a read run section
	// and a write run section (see above). Runs hold only the entries
	// whose cell lies in the worker's [lo, hi) range.
	fMemReq byte = 2
	// fMemRes (worker → coordinator): memResHdr.
	fMemRes byte = 3
	// fRouteReq (coordinator → worker): routeReqHdr, then one run
	// section of destination entries in the worker's [lo, hi) component
	// range.
	fRouteReq byte = 4
	// fRouteRes (worker → coordinator): routeResHdr.
	fRouteRes byte = 5
	// fBeat (worker → coordinator): rankHdr. Liveness heartbeat.
	fBeat byte = 6
	// fShutdown (coordinator → worker), no fields: clean exit request.
	fShutdown byte = 7
)

// maxFrame bounds an incoming frame's payload so a corrupt length prefix
// cannot drive an arbitrary allocation.
const maxFrame = 1 << 28

// fieldCodec walks a frame's fixed fields in wire order: *enc appends
// each field's value, *dec reads each field back into place. A frame's
// layout is therefore the one list in its header's fields method, and
// its encoder and decoder cannot disagree on it.
type fieldCodec interface {
	u32(v *uint32)
	i32(v *int32)
	i64(v *int64)
}

// header is a frame's fixed fields.
type header interface {
	fields(f fieldCodec)
}

// rankHdr is the payload of fHello and fBeat: the sending worker's rank.
type rankHdr struct{ rank uint32 }

func (h *rankHdr) fields(f fieldCodec) { f.u32(&h.rank) }

// echo opens every request and response: the (phase, attempt) being
// merged. A worker copies its request's echo into its response, and the
// coordinator discards any response whose echo is not the merge in
// flight — a duplicated request's second answer, or one left over from
// an aborted attempt.
type echo struct{ phase, attempt uint32 }

func echoOf(phase, attempt int) echo { return echo{uint32(phase), uint32(attempt)} }

// echoed returns the echo a response embeds.
func (h *echo) echoed() echo { return *h }

func (h *echo) fields(f fieldCodec) {
	f.u32(&h.phase)
	f.u32(&h.attempt)
}

// memReqHdr is fMemReq's fixed header: the rank owns cells [lo, hi) of
// cells, and run processor ids are below nprocs.
type memReqHdr struct {
	echo
	cells, lo, hi, nprocs uint32
}

func (h *memReqHdr) fields(f fieldCodec) {
	h.echo.fields(f)
	f.u32(&h.cells)
	f.u32(&h.lo)
	f.u32(&h.hi)
	f.u32(&h.nprocs)
}

// routeReqHdr is fRouteReq's fixed header: the rank owns components
// [lo, hi) of p, and run sender ids are below nsenders.
type routeReqHdr struct {
	echo
	p, lo, hi, nsenders uint32
}

func (h *routeReqHdr) fields(f fieldCodec) {
	h.echo.fields(f)
	f.u32(&h.p)
	f.u32(&h.lo)
	f.u32(&h.hi)
	f.u32(&h.nsenders)
}

// memResHdr is fMemRes: one rank's engine.MergeStats (viol −1 = clean).
type memResHdr struct {
	echo
	kread, kwrite int64
	viol          int32
}

func (h *memResHdr) fields(f fieldCodec) {
	h.echo.fields(f)
	f.i64(&h.kread)
	f.i64(&h.kwrite)
	f.i32(&h.viol)
}

// routeResHdr is fRouteRes: one rank's engine.RouteStats.
type routeResHdr struct {
	echo
	hrecv int64
}

func (h *routeResHdr) fields(f fieldCodec) {
	h.echo.fields(f)
	f.i64(&h.hrecv)
}

// enc builds one outgoing frame in a reusable buffer. start opens a
// frame with its fixed fields, the run-section appenders add the rest,
// finish backpatches the length prefix and returns the wire bytes (valid
// until the next start).
type enc struct {
	b []byte
}

// start opens a frame of type t whose fixed fields are h's (nil: none).
func (e *enc) start(t byte, h header) {
	e.b = append(e.b[:0], 0, 0, 0, 0, t)
	if h != nil {
		h.fields(e)
	}
}

func (e *enc) u32(v *uint32) { e.word(*v) }
func (e *enc) i32(v *int32)  { e.word(uint32(*v)) }
func (e *enc) i64(v *int64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, uint64(*v))
}

// word appends one u32: the unit of the run sections.
func (e *enc) word(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
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

// dec walks the fields of one received payload; decode errors latch in
// err and turn every later read into a zero-value no-op, so call sites
// check err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

// newDec consumes payload's type byte and returns it with a decoder over
// the fields that follow.
func newDec(payload []byte) (dec, byte) {
	if len(payload) == 0 {
		return dec{err: fmt.Errorf("proc: empty frame")}, 0
	}
	return dec{b: payload[1:]}, payload[0]
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("proc: truncated frame: %s at offset %d of %d", what, d.off, len(d.b))
	}
}

func (d *dec) u32(v *uint32) { *v = d.word() }
func (d *dec) i32(v *int32)  { *v = int32(d.word()) }

func (d *dec) i64(v *int64) {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("i64")
		*v = 0
		return
	}
	*v = int64(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
}

// word reads one u32: the unit of the run sections.
func (d *dec) word() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// col decodes a u32-counted i32 column into dst (reused, truncated).
func (d *dec) col(dst []int32) []int32 {
	n := int(d.word())
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
// merges, so steady-state encoding allocates only each rank's small
// fixed-field header (the field walk's interface calls move it to the
// heap).
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
		f.encs[r].start(fMemReq, &memReqHdr{echoOf(req.Phase, req.Attempt),
			uint32(req.Cells), uint32(lo), uint32(hi), uint32(req.P)})
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
		f.encs[r].start(fRouteReq, &routeReqHdr{echoOf(req.Phase, req.Attempt),
			uint32(req.P), uint32(lo), uint32(hi), uint32(req.P)})
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
				e.word(uint32(i))
				o.cnt = e.mark()
			}
			e.word(uint32(v))
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
