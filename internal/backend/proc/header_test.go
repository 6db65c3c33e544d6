package proc

import (
	"reflect"
	"testing"
	"time"
)

// TestHeadersRoundTrip encodes every frame's header struct with distinct
// field values and decodes it back: a field written at one width or
// position and read at another would come back changed.
func TestHeadersRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		t       byte
		in, out header
	}{
		{fHello, &rankHdr{0xdeadbeef}, &rankHdr{}},
		{fBeat, &rankHdr{7}, &rankHdr{}},
		{fMemReq, &memReqHdr{echo{1, 2}, 3, 4, 5, 6}, &memReqHdr{}},
		{fRouteReq, &routeReqHdr{echo{7, 8}, 9, 10, 11, 12}, &routeReqHdr{}},
		{fMemRes, &memResHdr{echo{13, 14}, -15, 1 << 40, -16}, &memResHdr{}},
		{fRouteRes, &routeResHdr{echo{17, 18}, -(1 << 50)}, &routeResHdr{}},
	} {
		d, typ := newDec(payloadOf(frameOf(tc.t, tc.in)))
		tc.out.fields(&d)
		switch {
		case typ != tc.t:
			t.Errorf("frame %d decoded as type %d", tc.t, typ)
		case d.err != nil:
			t.Errorf("frame %d: %v", tc.t, d.err)
		case d.off != len(d.b):
			t.Errorf("frame %d: %d bytes left after the fixed fields", tc.t, len(d.b)-d.off)
		case !reflect.DeepEqual(tc.in, tc.out):
			t.Errorf("frame %d: encoded %+v, decoded %+v", tc.t, tc.in, tc.out)
		}
	}
}

// TestAwaitSkipsStaleResponses feeds await a response of the right type
// but a stale attempt (a duplicated request's second answer) and one of
// the wrong type before the awaited response: only the last may be
// returned.
func TestAwaitSkipsStaleResponses(t *testing.T) {
	c := &Coordinator{opt: Options{HeartbeatTimeout: 5 * time.Second}}
	w := &workerProc{frames: make(chan []byte, 3), dead: make(chan struct{})}
	want := memResHdr{echo{5, 2}, 11, 12, -1}
	w.frames <- payloadOf(frameOf(fMemRes, &memResHdr{echo{5, 1}, 99, 99, 3}))
	w.frames <- payloadOf(frameOf(fRouteRes, &routeResHdr{echo{5, 2}, 99}))
	w.frames <- payloadOf(frameOf(fMemRes, &want))
	var got memResHdr
	if err := c.await(w, fMemRes, echo{5, 2}, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("await returned %+v, want %+v", got, want)
	}
	if len(w.frames) != 0 {
		t.Fatalf("%d frames left unread", len(w.frames))
	}
}
