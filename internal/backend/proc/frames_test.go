package proc

import (
	"bytes"
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

// chunkCols lays dense per-processor columns (dense[p] is processor p's
// column) out the way the engine's chunk arenas hand them to a backend:
// `chunks` contiguous processor ranges, each one entry column plus its
// parallel processor column.
func chunkCols(dense [][]int32, chunks int) (cols, procs [][]int32) {
	width := max((len(dense)+chunks-1)/chunks, 1)
	for lo := 0; lo < len(dense); lo += width {
		var c, q []int32
		for p := lo; p < min(lo+width, len(dense)); p++ {
			for _, v := range dense[p] {
				c = append(c, v)
				q = append(q, int32(p))
			}
		}
		cols, procs = append(cols, c), append(procs, q)
	}
	return cols, procs
}

// denseMem is a mem merge request in dense per-processor form: the
// reference the chunk-column request is checked against.
type denseMem struct {
	cells         int
	reads, writes [][]int32
}

// req is d as the engine hands it to a backend, in `chunks` chunks.
func (d denseMem) req(chunks int) engine.MemMergeReq {
	q := engine.MemMergeReq{Cells: d.cells, P: len(d.reads)}
	q.Reads, q.ReadProcs = chunkCols(d.reads, chunks)
	q.Writes, q.WriteProcs = chunkCols(d.writes, chunks)
	return q
}

// want is the reference answer: each processor's whole column fed as
// one run through the reference merger, over the whole space.
func (d denseMem) want() engine.MergeStats {
	var g engine.MemMerger
	g.Begin(0, d.cells)
	for p, col := range d.reads {
		if len(col) > 0 {
			g.Read(p, col)
		}
	}
	for p, col := range d.writes {
		if len(col) > 0 {
			g.Write(p, col)
		}
	}
	return g.End()
}

// denseRoute is the routing reference: max fan-in over dense
// per-sender destination columns.
func denseRoute(p int, dsts [][]int32) engine.RouteStats {
	recv := make([]int64, p)
	var st engine.RouteStats
	for _, col := range dsts {
		for _, d := range col {
			recv[d]++
			st.HRecv = max(st.HRecv, recv[d])
		}
	}
	return st
}

// routeReq is dense per-sender destination columns as a chunk-column
// request.
func routeReq(p int, dsts [][]int32, chunks int) engine.RouteMergeReq {
	q := engine.RouteMergeReq{P: p}
	q.Dsts, q.Srcs = chunkCols(dsts, chunks)
	return q
}

// TestServeRejectsMalformedRuns feeds the worker decoder malformed run
// sections: each must fail with its diagnosis, not panic, and leave the
// merger's scratch clean for the next (well-formed) request.
func TestServeRejectsMalformedRuns(t *testing.T) {
	var w workerState
	var ref engine.MemMerger
	// The bad runs request cells 3 and 5; the good request writes them,
	// so a read count left behind would show as a violation.
	good := denseMem{
		cells: 8, reads: [][]int32{{1, 2}, {2}, nil, {6}}, writes: [][]int32{{3}, nil, {4}, {5, 5}},
	}
	frames := newReqFrames(1)
	frames.mem(good.req(2))
	want := good.want()
	if got := ref.Merge(good.req(2), 0, 8); got != want {
		t.Fatalf("reference merge of the chunk columns = %+v, dense reference %+v", got, want)
	}
	for _, tc := range badMemRuns() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := w.serve(payloadOf(fuzzFrame(fMemReq, tc.tail)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			res, err := w.serve(payloadOf(frames.out[0]))
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
	e.start(fRouteReq, &routeReqHdr{echo{0, 1}, 4, 0, 4, 2})
	for _, v := range []uint32{1, 2, 1, 0} { // sender 2 of 2
		e.word(v)
	}
	_, err := w.serve(payloadOf(e.finish()))
	if err == nil || !strings.Contains(err.Error(), "processor 2, frame has 2 processors") {
		t.Fatalf("route sender past nsenders: err = %v", err)
	}
}

// decodeMemRes reads a framed fMemRes back into merge statistics.
func decodeMemRes(t *testing.T, frame []byte) engine.MergeStats {
	t.Helper()
	var res memResHdr
	d, _ := newDec(payloadOf(frame))
	res.fields(&d)
	if d.err != nil {
		t.Fatalf("decode response: %v", d.err)
	}
	return engine.MergeStats{KRead: res.kread, KWrite: res.kwrite, Viol: res.viol}
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

// randomReq builds a pseudo-random dense mem request; about half the
// processors are silent, as in a sparse phase.
func randomReq(rng *rand.Rand, procs, cells int) denseMem {
	req := denseMem{cells: cells}
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
		req.reads = append(req.reads, reads)
		req.writes = append(req.writes, writes)
	}
	return req
}

// TestSparseFramesMatchReference encodes random chunk-column requests
// into per-rank sparse frames, serves each through a worker decoder and
// folds the answers as the coordinator does: the result must equal the
// dense per-processor reference over the whole space, at rank counts
// that split the space unevenly (cells % ranks ≠ 0). Every frame's owned
// range must be rangeFor's, and the frames must not depend on how the
// processors were chunked: one chunk and 1–4 chunks give the same bytes.
func TestSparseFramesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, ranks := range []int{1, 2, 3, 5, 7} {
		for _, cells := range []int{7, 61, 64} {
			name := fmt.Sprintf("w%d_cells%d", ranks, cells)
			frames := newReqFrames(ranks)
			one := newReqFrames(ranks)
			ws := make([]workerState, ranks)
			for trial := 0; trial < 40; trial++ {
				dense := randomReq(rng, 1+rng.Intn(9), cells)
				chunks := 1 + rng.Intn(4)
				frames.mem(dense.req(chunks))
				one.mem(dense.req(1))
				got := engine.MergeStats{Viol: -1}
				for r := range ws {
					if !bytes.Equal(frames.out[r], one.out[r]) {
						t.Fatalf("%s trial %d rank %d: frame from %d chunks differs from the one-chunk frame", name, trial, r, chunks)
					}
					var h memReqHdr
					d, _ := newDec(payloadOf(frames.out[r]))
					h.fields(&d)
					lo, hi := rangeFor(r, cells, ranks)
					if int(h.lo) != lo || int(h.hi) != hi {
						t.Fatalf("%s: rank %d frame range differs from rangeFor [%d, %d)", name, r, lo, hi)
					}
					res, err := ws[r].serve(payloadOf(frames.out[r]))
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
				if want := dense.want(); got != want {
					t.Fatalf("%s trial %d: sparse frames merged to %+v, want %+v", name, trial, got, want)
				}
			}
			// The routing barrier over the same shapes: reads as
			// destination columns, cells as components.
			for trial := 0; trial < 40; trial++ {
				dsts := randomReq(rng, cells, cells).reads
				frames.route(routeReq(cells, dsts, 1+rng.Intn(4)))
				var got engine.RouteStats
				for r := range ws {
					res, err := ws[r].serve(payloadOf(frames.out[r]))
					if err != nil {
						t.Fatalf("%s route trial %d rank %d: %v", name, trial, r, err)
					}
					var h routeResHdr
					d, _ := newDec(payloadOf(res))
					h.fields(&d)
					got.HRecv = max(got.HRecv, h.hrecv)
				}
				if want := denseRoute(cells, dsts); got != want {
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
	dense := denseMem{cells: p, reads: make([][]int32, p), writes: make([][]int32, p)}
	dsts := make([][]int32, p)
	for i := 0; i < 5; i++ {
		dense.reads[rng.Intn(p)] = []int32{int32(rng.Intn(p))}
		dense.writes[rng.Intn(p)] = []int32{int32(rng.Intn(p))}
		dsts[rng.Intn(p)] = []int32{int32(rng.Intn(p)), int32(rng.Intn(p))}
	}
	req, rreq := dense.req(2), routeReq(p, dsts, 2)
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
