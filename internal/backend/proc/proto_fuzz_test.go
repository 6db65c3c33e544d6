package proc

import (
	"bytes"
	"testing"
)

// fuzzFrame builds one wire frame from a type byte and raw payload tail,
// bypassing enc so seeds can express torn and malformed shapes too.
func fuzzFrame(t byte, tail []byte) []byte {
	var e enc
	e.reset(t)
	e.b = append(e.b, tail...)
	return append([]byte(nil), e.finish()...)
}

// FuzzFrameCodec throws arbitrary byte streams at the frame layer and
// checks the codec invariants the proc backend relies on:
//
//   - readFrame never panics and never yields a payload outside
//     (0, maxFrame];
//   - dec never panics, never reads past the payload, and latches its
//     first error;
//   - a payload that decodes fully under its frame type's schema
//     re-encodes through enc to the identical wire bytes (codec
//     agreement, the runtime twin of the framestate analyzer).
//
// Seeds cover torn tails, oversized and zero length prefixes, and
// duplicate headers (a payload that itself looks like a framed stream).
func FuzzFrameCodec(f *testing.F) {
	var e enc

	// One well-formed frame of each type.
	e.reset(fHello)
	e.u32(3)
	hello := append([]byte(nil), e.finish()...)
	f.Add(hello)

	e.reset(fMemRes)
	e.u32(7)
	e.u32(1)
	e.i64(42)
	e.i64(-9)
	e.i32(-1)
	memres := append([]byte(nil), e.finish()...)
	f.Add(memres)

	e.reset(fRouteRes)
	e.u32(2)
	e.u32(0)
	e.i64(1 << 40)
	f.Add(append([]byte(nil), e.finish()...))

	// Request frames as the coordinator builds them, one per rank of 2:
	// a mem request over 5 processors and a route request over 8
	// senders.
	frames := newReqFrames(2)
	mem := denseMem{
		cells:  8,
		reads:  [][]int32{{0, 1}, nil, {6}, nil, {3, 3}},
		writes: [][]int32{nil, {2, 7}, nil, {5}, nil},
	}.req(2)
	mem.Phase = 1
	frames.mem(mem)
	for _, fr := range frames.out {
		f.Add(append([]byte(nil), fr...))
	}
	route := routeReq(8, [][]int32{{6}, nil, {0, 7, 1}, nil, nil, nil, nil, {4}}, 3)
	route.Phase, route.Attempt = 5, 2
	frames.route(route)
	for _, fr := range frames.out {
		f.Add(append([]byte(nil), fr...))
	}

	e.reset(fBeat)
	e.u32(0)
	f.Add(append([]byte(nil), e.finish()...))

	e.reset(fShutdown)
	f.Add(append([]byte(nil), e.finish()...))

	// Torn tail: a valid frame with its last bytes ripped off.
	f.Add(memres[:len(memres)-3])
	// Oversized length prefix: claims more than maxFrame.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, fMemRes})
	// Zero length prefix.
	f.Add([]byte{0, 0, 0, 0})
	// Malformed run sections the worker must reject (badMemRuns).
	for _, bad := range badMemRuns() {
		f.Add(fuzzFrame(fMemReq, bad.tail))
	}
	// Duplicate headers: two frames back to back, and a payload whose
	// first bytes themselves parse as a plausible length header.
	f.Add(append(append([]byte(nil), hello...), memres...))
	f.Add(fuzzFrame(fRouteRes, []byte{9, 0, 0, 0, fRouteRes, 1, 2, 3, 4}))

	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var buf []byte
		for i := 0; i < 32; i++ {
			payload, nbuf, err := readFrame(r, buf)
			buf = nbuf
			if err != nil {
				return
			}
			if len(payload) == 0 || len(payload) > maxFrame {
				t.Fatalf("readFrame returned %d-byte payload", len(payload))
			}
			checkPayload(t, payload)
		}
	})
}

// checkPayload decodes one payload under its frame type's schema and
// enforces the dec-bounds and round-trip invariants. Request payloads
// also go through the worker's decoder, which must answer or fail with
// an error, never panic.
func checkPayload(t *testing.T, payload []byte) {
	t.Helper()
	var e enc
	d := dec{b: payload, off: 1}
	switch payload[0] {
	case fHello, fBeat:
		rank := d.u32()
		e.reset(payload[0])
		e.u32(rank)
	case fMemRes:
		phase, attempt := d.u32(), d.u32()
		kread, kwrite := d.i64(), d.i64()
		viol := d.i32()
		e.reset(fMemRes)
		e.u32(phase)
		e.u32(attempt)
		e.i64(kread)
		e.i64(kwrite)
		e.i32(viol)
	case fRouteRes:
		phase, attempt := d.u32(), d.u32()
		hrecv := d.i64()
		e.reset(fRouteRes)
		e.u32(phase)
		e.u32(attempt)
		e.i64(hrecv)
	case fMemReq:
		phase, attempt, cells := d.u32(), d.u32(), d.u32()
		lo, hi, nprocs := d.u32(), d.u32(), d.u32()
		e.reset(fMemReq)
		e.u32(phase)
		e.u32(attempt)
		e.u32(cells)
		e.u32(lo)
		e.u32(hi)
		e.u32(nprocs)
		reencodeRuns(&d, &e)
		reencodeRuns(&d, &e)
		serveBounded(payload, lo, hi)
	case fRouteReq:
		phase, attempt, p := d.u32(), d.u32(), d.u32()
		lo, hi, nsenders := d.u32(), d.u32(), d.u32()
		e.reset(fRouteReq)
		e.u32(phase)
		e.u32(attempt)
		e.u32(p)
		e.u32(lo)
		e.u32(hi)
		e.u32(nsenders)
		reencodeRuns(&d, &e)
		serveBounded(payload, lo, hi)
	case fShutdown:
		e.reset(fShutdown)
	default:
		return // unknown type: the stream layer does not police types
	}
	if d.off > len(d.b) {
		t.Fatalf("dec read past payload: off %d of %d", d.off, len(d.b))
	}
	if d.err == nil && d.off == len(d.b) {
		if got := e.finish()[4:]; !bytes.Equal(got, payload) {
			t.Fatalf("round-trip mismatch for frame %d:\n  decoded from %x\n  re-encoded to %x", payload[0], payload, got)
		}
	}
}

// reencodeRuns drains one run section from d — a u32 run count, then
// (proc u32, u32-counted i32 column) runs — mirroring it into e and
// stopping at the first decode error.
func reencodeRuns(d *dec, e *enc) {
	var col []int32
	n := d.u32()
	e.u32(n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		proc := d.u32()
		col = d.col(col)
		e.u32(proc)
		off := e.mark()
		for _, v := range col {
			e.i32(v)
		}
		e.patch(off, uint32(len(col)))
	}
}

// serveBounded runs a request payload through a fresh worker's decoder.
// The mergers allocate O(hi − lo) scratch, so ranges wider than a
// fuzz-sized bound are skipped: their cost is allocation, not decoding.
func serveBounded(payload []byte, lo, hi uint32) {
	if hi < lo || hi-lo > 1<<16 {
		return
	}
	var w workerState
	if payload[0] == fMemReq {
		w.serveMem(payload)
	} else {
		w.serveRoute(payload)
	}
}
