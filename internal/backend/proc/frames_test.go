package proc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
)

// memTail builds an fMemReq payload tail (everything after the type
// byte): the fixed header (phase, attempt, cells, lo, hi, nprocs), then
// body as raw u32 words — the run sections, well-formed or not.
func memTail(cells, lo, hi, nprocs uint32, body ...uint32) []byte {
	b := make([]byte, 0, 24+4*len(body))
	for _, v := range append([]uint32{1, 1, cells, lo, hi, nprocs}, body...) {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// badMemRun is one malformed mem request and the diagnosis it must get.
type badMemRun struct {
	name, want string
	tail       []byte
}

// badMemRuns lists malformed run sections over 4 processors and 8 cells.
// Sections read: run count, then per run proc, entry count, entries.
func badMemRuns() []badMemRun {
	return []badMemRun{
		{"proc past nprocs", "processor 4, frame has 4 processors",
			memTail(8, 0, 8, 4, 1, 4, 1, 3, 0)},
		{"repeated read proc", "processor 2 follows processor 2",
			memTail(8, 0, 8, 4, 2, 2, 1, 3, 2, 1, 5, 0)},
		{"decreasing read proc", "processor 1 follows processor 3",
			memTail(8, 0, 8, 4, 2, 3, 1, 3, 1, 1, 5, 0)},
		{"repeated write proc", "processor 1 follows processor 1",
			memTail(8, 0, 8, 4, 0, 2, 1, 1, 3, 1, 1, 5)},
		{"run count overruns payload", "truncated frame",
			memTail(8, 0, 8, 4, 5, 0, 1, 3)},
		{"entry count overruns payload", "column of 1000 entries",
			memTail(8, 0, 8, 4, 1, 0, 1000, 3)},
		{"range outside cells", "owned range [4, 9) outside [0, 8)",
			memTail(8, 4, 9, 4, 0, 0)},
		{"trailing bytes", "4 trailing bytes",
			memTail(8, 0, 8, 4, 0, 0, 7)},
	}
}

// payloadOf strips a frame's length prefix.
func payloadOf(frame []byte) []byte { return frame[4:] }

// TestServeRejectsMalformedRuns feeds the worker decoder malformed run
// sections: each must fail with its diagnosis, not panic, and leave the
// merger's scratch clean for the next (well-formed) request.
func TestServeRejectsMalformedRuns(t *testing.T) {
	var w workerState
	var ref engine.MemMerger
	// The bad runs request cells 3 and 5; the good request writes them,
	// so a read count left behind would show as a violation.
	good := engine.MemMergeReq{
		Cells: 8, Reads: [][]int32{{1, 2}, {2}, nil, {6}}, Writes: [][]int32{{3}, nil, {4}, {5, 5}},
	}
	frames := newReqFrames(1)
	frames.mem(good)
	want := ref.Merge(good, 0, 8)
	for _, tc := range badMemRuns() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := w.serveMem(payloadOf(fuzzFrame(fMemReq, tc.tail)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			res, err := w.serveMem(payloadOf(frames.out[0]))
			if err != nil {
				t.Fatalf("well-formed request after the rejection: %v", err)
			}
			if got := decodeMemRes(t, res); got != want {
				t.Fatalf("merge after the rejection = %+v, want %+v", got, want)
			}
		})
	}
	// The route decoder shares the run checks.
	var e enc
	e.reset(fRouteReq)
	for _, v := range []uint32{0, 1, 4, 0, 4, 2, 1, 2, 1, 0} { // sender 2 of 2
		e.u32(v)
	}
	_, err := w.serveRoute(payloadOf(e.finish()))
	if err == nil || !strings.Contains(err.Error(), "processor 2, frame has 2 processors") {
		t.Fatalf("route sender past nsenders: err = %v", err)
	}
}

// decodeMemRes reads a framed fMemRes back into merge statistics.
func decodeMemRes(t *testing.T, frame []byte) engine.MergeStats {
	t.Helper()
	d := dec{b: payloadOf(frame), off: 1}
	d.u32()
	d.u32()
	st := engine.MergeStats{KRead: d.i64(), KWrite: d.i64(), Viol: d.i32()}
	if d.err != nil {
		t.Fatalf("decode response: %v", d.err)
	}
	return st
}

// TestRankOfMatchesRangeFor pins the encoder's one-pass rank lookup to
// the owned ranges exactly, including splits that do not divide evenly
// and large spaces up to the int32 address limit.
func TestRankOfMatchesRangeFor(t *testing.T) {
	check := func(cells, ranks, a, want int) {
		if got := rankOf(a, cells, ranks); got != want {
			t.Fatalf("rankOf(%d, cells=%d, ranks=%d) = %d, want %d", a, cells, ranks, got, want)
		}
	}
	for ranks := 1; ranks <= 9; ranks++ {
		for cells := 1; cells <= 130; cells++ {
			for r := 0; r < ranks; r++ {
				lo, hi := rangeFor(r, cells, ranks)
				for a := lo; a < hi; a++ {
					check(cells, ranks, a, r)
				}
			}
		}
		for _, cells := range []int{1<<30 - 1, 1 << 30, 1<<31 - 1} {
			for r := 0; r < ranks; r++ {
				lo, hi := rangeFor(r, cells, ranks)
				if lo < hi {
					check(cells, ranks, lo, r)
					check(cells, ranks, hi-1, r)
				}
			}
		}
	}
}

// randomReq builds a pseudo-random mem request; about half the columns
// are empty, as in a sparse phase.
func randomReq(rng *rand.Rand, procs, cells int) engine.MemMergeReq {
	req := engine.MemMergeReq{Cells: cells}
	for p := 0; p < procs; p++ {
		var reads, writes []int32
		if rng.Intn(2) == 0 {
			for i := rng.Intn(6); i > 0; i-- {
				reads = append(reads, int32(rng.Intn(cells)))
			}
			for i := rng.Intn(6); i > 0; i-- {
				writes = append(writes, int32(rng.Intn(cells)))
			}
		}
		req.Reads = append(req.Reads, reads)
		req.Writes = append(req.Writes, writes)
	}
	return req
}

// TestSparseFramesMatchReference encodes random requests into per-rank
// sparse frames, serves each through a worker decoder and folds the
// answers as the coordinator does: the result must equal the reference
// merger over the whole space, at rank counts that split the space
// unevenly (cells % ranks ≠ 0). Every frame's owned range must be
// rangeFor's.
func TestSparseFramesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var ref engine.MemMerger
	var rref engine.RouteMerger
	for _, ranks := range []int{1, 2, 3, 5, 7} {
		for _, cells := range []int{7, 61, 64} {
			name := fmt.Sprintf("w%d_cells%d", ranks, cells)
			frames := newReqFrames(ranks)
			ws := make([]workerState, ranks)
			for trial := 0; trial < 40; trial++ {
				req := randomReq(rng, 1+rng.Intn(9), cells)
				frames.mem(req)
				got := engine.MergeStats{Viol: -1}
				for r := range ws {
					d := dec{b: payloadOf(frames.out[r]), off: 1 + 4*3}
					lo, hi := rangeFor(r, cells, ranks)
					if int(d.u32()) != lo || int(d.u32()) != hi {
						t.Fatalf("%s: rank %d frame range differs from rangeFor [%d, %d)", name, r, lo, hi)
					}
					res, err := ws[r].serveMem(payloadOf(frames.out[r]))
					if err != nil {
						t.Fatalf("%s trial %d rank %d: %v", name, trial, r, err)
					}
					st := decodeMemRes(t, res)
					got.KRead = max(got.KRead, st.KRead)
					got.KWrite = max(got.KWrite, st.KWrite)
					if st.Viol >= 0 && (got.Viol < 0 || st.Viol < got.Viol) {
						got.Viol = st.Viol
					}
				}
				if want := ref.Merge(req, 0, cells); got != want {
					t.Fatalf("%s trial %d: sparse frames merged to %+v, want %+v", name, trial, got, want)
				}
			}
			// The routing barrier over the same shapes: reads as
			// destination columns, cells as components.
			for trial := 0; trial < 40; trial++ {
				req := randomReq(rng, cells, cells)
				rreq := engine.RouteMergeReq{P: cells, Dsts: req.Reads}
				frames.route(rreq)
				var got engine.RouteStats
				for r := range ws {
					res, err := ws[r].serveRoute(payloadOf(frames.out[r]))
					if err != nil {
						t.Fatalf("%s route trial %d rank %d: %v", name, trial, r, err)
					}
					d := dec{b: payloadOf(res), off: 1}
					d.u32()
					d.u32()
					got.HRecv = max(got.HRecv, d.i64())
				}
				if want := rref.Merge(rreq, 0, cells); got != want {
					t.Fatalf("%s route trial %d: got %+v, want %+v", name, trial, got, want)
				}
			}
		}
	}
}

// TestSparseFrameSize pins the frame size to the requests, not to p:
// with 65536 processors and 10 requests, every rank's frame stays under
// 1 KiB.
func TestSparseFrameSize(t *testing.T) {
	const p = 1 << 16
	rng := rand.New(rand.NewSource(4))
	req := engine.MemMergeReq{Cells: p, Reads: make([][]int32, p), Writes: make([][]int32, p)}
	rreq := engine.RouteMergeReq{P: p, Dsts: make([][]int32, p)}
	for i := 0; i < 5; i++ {
		req.Reads[rng.Intn(p)] = []int32{int32(rng.Intn(p))}
		req.Writes[rng.Intn(p)] = []int32{int32(rng.Intn(p))}
		rreq.Dsts[rng.Intn(p)] = []int32{int32(rng.Intn(p)), int32(rng.Intn(p))}
	}
	for _, ranks := range []int{1, 2} {
		frames := newReqFrames(ranks)
		frames.mem(req)
		for r, fr := range frames.out {
			if len(fr) >= 1024 {
				t.Errorf("mem frame for rank %d of %d is %d bytes, want < 1 KiB", r, ranks, len(fr))
			}
		}
		frames.route(rreq)
		for r, fr := range frames.out {
			if len(fr) >= 1024 {
				t.Errorf("route frame for rank %d of %d is %d bytes, want < 1 KiB", r, ranks, len(fr))
			}
		}
	}
}
