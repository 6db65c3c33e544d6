package proc

import (
	"bytes"
	"testing"
)

// fuzzFrame builds one wire frame from a type byte and raw payload tail,
// bypassing the header structs so seeds can express torn and malformed
// shapes too.
func fuzzFrame(t byte, tail []byte) []byte {
	var e enc
	e.start(t, nil)
	e.b = append(e.b, tail...)
	return append([]byte(nil), e.finish()...)
}

// frameOf encodes one frame of fixed fields h.
func frameOf(t byte, h header) []byte {
	var e enc
	e.start(t, h)
	return append([]byte(nil), e.finish()...)
}

// FuzzFrameCodec throws arbitrary byte streams at the frame layer and
// checks the codec invariants the proc backend relies on:
//
//   - readFrame never panics and never yields a payload outside
//     (0, maxFrame];
//   - dec never panics, never reads past the payload, and latches its
//     first error;
//   - a payload that decodes fully into its frame type's header struct
//     (and run sections) re-encodes from them to the identical wire
//     bytes.
//
// Seeds cover torn tails, oversized and zero length prefixes, and
// duplicate headers (a payload that itself looks like a framed stream).
func FuzzFrameCodec(f *testing.F) {
	// One well-formed frame of each type.
	hello := frameOf(fHello, &rankHdr{3})
	f.Add(hello)
	memres := frameOf(fMemRes, &memResHdr{echo{7, 1}, 42, -9, -1})
	f.Add(memres)
	f.Add(frameOf(fRouteRes, &routeResHdr{echo{2, 0}, 1 << 40}))

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

	f.Add(frameOf(fBeat, &rankHdr{0}))
	f.Add(frameOf(fShutdown, nil))

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

// checkPayload decodes one payload into its frame type's header struct
// and run sections and enforces the dec-bounds and round-trip
// invariants. Request payloads also go through the worker's decoder,
// which must answer or fail with an error, never panic.
func checkPayload(t *testing.T, payload []byte) {
	t.Helper()
	var h header
	sections := 0
	switch payload[0] {
	case fHello, fBeat:
		h = &rankHdr{}
	case fMemRes:
		h = &memResHdr{}
	case fRouteRes:
		h = &routeResHdr{}
	case fMemReq:
		h, sections = &memReqHdr{}, 2
	case fRouteReq:
		h, sections = &routeReqHdr{}, 1
	case fShutdown:
	default:
		return // unknown type: the stream layer does not police types
	}
	d, typ := newDec(payload)
	if h != nil {
		h.fields(&d)
	}
	var e enc
	e.start(typ, h)
	for i := 0; i < sections; i++ {
		reencodeRuns(&d, &e)
	}
	switch r := h.(type) {
	case *memReqHdr:
		serveBounded(payload, r.lo, r.hi)
	case *routeReqHdr:
		serveBounded(payload, r.lo, r.hi)
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
	n := d.word()
	e.word(n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		proc := d.word()
		col = d.col(col)
		e.word(proc)
		off := e.mark()
		for _, v := range col {
			e.word(uint32(v))
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
	w.serve(payload)
}
