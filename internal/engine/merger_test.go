package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// denseReq is a merge request in dense per-processor form — reads[p]
// and writes[p] are processor p's columns — the reference shape the
// chunk-column requests of the engine are checked against.
type denseReq struct {
	cells         int
	reads, writes [][]int32
}

// chunked lays dense per-processor columns out the way the engine's
// chunk arenas hold them: the processors split into `chunks` contiguous
// ranges, each range one address column plus its parallel processor
// column. Silent processors leave no trace.
func chunked(dense [][]int32, chunks int) (addrs, procs [][]int32) {
	width := (len(dense) + chunks - 1) / chunks
	for lo := 0; lo < len(dense); lo += width {
		var a, q []int32
		for p := lo; p < min(lo+width, len(dense)); p++ {
			for _, v := range dense[p] {
				a = append(a, v)
				q = append(q, int32(p))
			}
		}
		addrs, procs = append(addrs, a), append(procs, q)
	}
	return addrs, procs
}

// memReq is d as the engine would hand it to a backend, in `chunks`
// chunk columns.
func (d denseReq) memReq(chunks int) MemMergeReq {
	req := MemMergeReq{Cells: d.cells, P: len(d.reads)}
	req.Reads, req.ReadProcs = chunked(d.reads, chunks)
	req.Writes, req.WriteProcs = chunked(d.writes, chunks)
	return req
}

// naiveMemMerge states the shared-memory merge rules directly, with
// sets: KRead is the most distinct readers of any cell; KWrite the most
// distinct writers of any cell nobody read; Viol the smallest cell both
// read and written (−1 = none).
func naiveMemMerge(req denseReq) MergeStats {
	readers := map[int32]map[int]bool{}
	writers := map[int32]map[int]bool{}
	add := func(m map[int32]map[int]bool, a int32, p int) {
		if m[a] == nil {
			m[a] = map[int]bool{}
		}
		m[a][p] = true
	}
	for p, col := range req.reads {
		for _, a := range col {
			add(readers, a, p)
		}
	}
	for p, col := range req.writes {
		for _, a := range col {
			add(writers, a, p)
		}
	}
	st := MergeStats{Viol: -1}
	for a, rs := range readers {
		st.KRead = max(st.KRead, int64(len(rs)))
		if writers[a] != nil && (st.Viol < 0 || a < st.Viol) {
			st.Viol = a
		}
	}
	for a, ws := range writers {
		if readers[a] == nil {
			st.KWrite = max(st.KWrite, int64(len(ws)))
		}
	}
	return st
}

// randomMergeReq builds a request over cells with about half the
// processors silent, and duplicate requests within a processor.
func randomMergeReq(rng *rand.Rand, procs, cells int) denseReq {
	req := denseReq{cells: cells}
	for p := 0; p < procs; p++ {
		var reads, writes []int32
		if rng.Intn(2) == 0 {
			for i := rng.Intn(8); i > 0; i-- {
				reads = append(reads, int32(rng.Intn(cells)))
			}
			for i := rng.Intn(8); i > 0; i-- {
				writes = append(writes, int32(rng.Intn(cells)))
			}
		}
		req.reads = append(req.reads, reads)
		req.writes = append(req.writes, writes)
	}
	return req
}

// runFed merges req over [lo, hi) through the run-fed API the way a
// sparse-frame worker does: only non-empty per-processor runs, each
// pre-filtered to the range.
func runFed(g *MemMerger, req denseReq, lo, hi int) MergeStats {
	filter := func(col []int32) []int32 {
		var out []int32
		for _, a := range col {
			if int(a) >= lo && int(a) < hi {
				out = append(out, a)
			}
		}
		return out
	}
	g.Begin(lo, hi)
	for p, col := range req.reads {
		if run := filter(col); len(run) > 0 {
			g.Read(p, run)
		}
	}
	for p, col := range req.writes {
		if run := filter(col); len(run) > 0 {
			g.Write(p, run)
		}
	}
	return g.End()
}

// TestMemMergerRunFedMatchesMerge checks, on random requests, that
// Merge of the chunk-column request (1 to 4 chunks) over the whole space
// equals the set-based statement of the rules on the dense per-processor
// reference, and that the run-fed API over per-rank ranges — split
// unevenly when cells % ranks ≠ 0 — folds to the same answer.
func TestMemMergerRunFedMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	var whole, fed MemMerger
	for _, ranks := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("w%d", ranks), func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				cells := 1 + rng.Intn(40)
				req := randomMergeReq(rng, 1+rng.Intn(12), cells)
				want := naiveMemMerge(req)
				chunks := 1 + rng.Intn(4)
				if got := whole.Merge(req.memReq(chunks), 0, cells); got != want {
					t.Fatalf("trial %d (%d chunks): Merge = %+v, want %+v", trial, chunks, got, want)
				}
				got := MergeStats{Viol: -1}
				for r := 0; r < ranks; r++ {
					st := runFed(&fed, req, r*cells/ranks, (r+1)*cells/ranks)
					got.KRead = max(got.KRead, st.KRead)
					got.KWrite = max(got.KWrite, st.KWrite)
					if st.Viol >= 0 && (got.Viol < 0 || st.Viol < got.Viol) {
						got.Viol = st.Viol
					}
				}
				if got != want {
					t.Fatalf("trial %d (cells %d): run-fed over %d ranks = %+v, want %+v", trial, cells, ranks, got, want)
				}
			}
		})
	}
}

// TestRouteMergerRunFedMatchesMerge does the same for the routing merge:
// max fan-in, counting every message.
func TestRouteMergerRunFedMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, fed RouteMerger
	for trial := 0; trial < 300; trial++ {
		p := 1 + rng.Intn(30)
		dsts := make([][]int32, p)
		recv := make([]int64, p)
		var want RouteStats
		for s := range dsts {
			for i := rng.Intn(6); i > 0; i-- {
				d := rng.Intn(p)
				dsts[s] = append(dsts[s], int32(d))
				recv[d]++
				want.HRecv = max(want.HRecv, recv[d])
			}
		}
		req := RouteMergeReq{P: p}
		req.Dsts, req.Srcs = chunked(dsts, 1+rng.Intn(4))
		if got := whole.Merge(req, 0, p); got != want {
			t.Fatalf("trial %d: Merge = %+v, want %+v", trial, got, want)
		}
		ranks := 1 + rng.Intn(4)
		var got RouteStats
		for r := 0; r < ranks; r++ {
			lo, hi := r*p/ranks, (r+1)*p/ranks
			fed.Begin(lo, hi)
			for _, col := range dsts {
				var run []int32
				for _, d := range col {
					if int(d) >= lo && int(d) < hi {
						run = append(run, d)
					}
				}
				if len(run) > 0 {
					fed.Send(run)
				}
			}
			got.HRecv = max(got.HRecv, fed.End().HRecv)
		}
		if got != want {
			t.Fatalf("trial %d (p %d, %d ranks): run-fed = %+v, want %+v", trial, p, ranks, got, want)
		}
	}
}
