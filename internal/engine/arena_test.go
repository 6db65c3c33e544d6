package engine_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
)

// TestPhaseAllocsIndependentOfP pins the per-chunk arenas: a warmed-up
// phase allocates the same number of objects at p=1024 and p=65536, at
// one and two workers. Any host object kept per processor (a context, a
// private column, a run header) would make the count grow with p.
func TestPhaseAllocsIndependentOfP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs p=65536 phases")
	}
	allocs := func(p, workers int) float64 {
		m := newMemMachine(t, p, 2*p, workers)
		body := func(c *engine.MemCtx[int64]) {
			v := c.Read(c.Proc())
			c.Write(p+c.Proc(), v+1)
		}
		m.Phase(body)
		m.Phase(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { m.Phase(body) })
	}
	for _, workers := range []int{1, 2} {
		small, large := allocs(1024, workers), allocs(65536, workers)
		if small != large {
			t.Errorf("W=%d: steady-state phase allocates %.0f objects at p=1024 but %.0f at p=65536",
				workers, small, large)
		}
	}
}

// capturingBackend is the reference merge behind the Backend seam; it
// also keeps a copy of the per-processor columns of every merge, so
// tests can check the runs the engine rebuilt from its arenas.
type capturingBackend struct {
	g             engine.MemMerger
	reads, writes [][][]int32
}

func (b *capturingBackend) Name() string { return "capture" }

func (b *capturingBackend) MergeMem(req engine.MemMergeReq) (engine.MergeStats, error) {
	clone := func(cols [][]int32) [][]int32 {
		out := make([][]int32, len(cols))
		for i, c := range cols {
			out[i] = slices.Clone(c)
		}
		return out
	}
	b.reads = append(b.reads, clone(req.Reads))
	b.writes = append(b.writes, clone(req.Writes))
	return b.g.Merge(req, 0, req.Cells), nil
}

func (b *capturingBackend) MergeRoute(engine.RouteMergeReq) (engine.RouteStats, error) {
	return engine.RouteStats{}, fmt.Errorf("capture: no routing")
}

func (b *capturingBackend) Close() error { return nil }

// arenaPhases issues requests in body order writes-first for some
// processors, with silent processors, and with one processor crashed
// (degraded) at the first barrier, over 7 processors: at 2, 3 and 8
// workers the chunks split the processor range unevenly.
func arenaPhases(t *testing.T, workers int, bk engine.Backend) ([]string, []int64) {
	t.Helper()
	const p = 7
	m := newMemMachine(t, p, 32, workers)
	m.SetBackend(bk)
	m.InjectFaults(scripted(map[int]engine.Verdict{
		0: {Class: engine.FaultCrash, Err: errScripted, Proc: 4, Addr: -1},
	}), engine.RetryPolicy{}, true)
	ev := &engine.EventLog{}
	m.AddObserver(ev)
	for i := range m.Data() {
		m.Data()[i] = int64(100 + i)
	}
	body := func(c *engine.MemCtx[int64]) {
		i := c.Proc()
		switch i % 3 {
		case 0: // writes issued before reads
			c.Write(16+i, int64(i))
			c.Read(i)
			c.Write(24+i%4, int64(-i))
		case 1: // reads only
			c.ReadBlock(i, 2)
		default: // silent
		}
	}
	m.Phase(body)
	m.Phase(body)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	return ev.Lines(), slices.Clone(m.Data())
}

// TestArenaStreamsAcrossChunks: the emitted event stream lists each
// processor's reads before its writes, in issue order, across every
// chunk boundary, and a crashed processor records nothing — the same
// stream at every worker count, inproc and through a backend. The
// backend also sees one column per processor, empty for the crashed
// and the silent ones.
func TestArenaStreamsAcrossChunks(t *testing.T) {
	want := []string{
		"phase 0 start",
		"phase 0 p0 read 0=100",
		"phase 0 p0 write 16=0",
		"phase 0 p0 write 24=0",
		"phase 0 p1 read 1=101",
		"phase 0 p1 read 2=102",
		"phase 0 p3 read 3=103",
		"phase 0 p3 write 19=3",
		"phase 0 p3 write 27=-3",
		"phase 0 p4 read 4=104",
		"phase 0 p4 read 5=105",
		"phase 0 p6 read 6=106",
		"phase 0 p6 write 22=6",
		"phase 0 p6 write 26=-6",
		"phase 0 end: time=2 m_op=0 m_rw=2 κ=1 round=true",
		"phase 1 start",
		"phase 1 p0 read 0=100",
		"phase 1 p0 write 16=0",
		"phase 1 p0 write 24=0",
		"phase 1 p1 read 1=101",
		"phase 1 p1 read 2=102",
		"phase 1 p3 read 3=103",
		"phase 1 p3 write 19=3",
		"phase 1 p3 write 27=-3",
		"phase 1 p6 read 6=106",
		"phase 1 p6 write 22=6",
		"phase 1 p6 write 26=-6",
		"phase 1 end: time=2 m_op=0 m_rw=2 κ=1 round=true",
	}
	ref, refMem := arenaPhases(t, 1, nil)
	if !reflect.DeepEqual(ref, want) {
		t.Fatalf("W=1 stream:\n%q\nwant\n%q", ref, want)
	}
	for _, workers := range []int{2, 3, 8} {
		for _, viaBackend := range []bool{false, true} {
			var bk *capturingBackend
			var use engine.Backend
			if viaBackend {
				bk = &capturingBackend{}
				use = bk
			}
			got, mem := arenaPhases(t, workers, use)
			if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(mem, refMem) {
				t.Errorf("W=%d backend=%t: stream or memory differs from W=1:\n%q", workers, viaBackend, got)
			}
			if !viaBackend {
				continue
			}
			if len(bk.reads) != 2 {
				t.Fatalf("W=%d: backend saw %d merges, want 2", workers, len(bk.reads))
			}
			wantReads := [][]int32{{0}, {1, 2}, {}, {3}, {}, {}, {6}}
			wantWrites := [][]int32{{16, 24}, {}, {}, {19, 27}, {}, {}, {22, 26}}
			if !sameCols(bk.reads[1], wantReads) || !sameCols(bk.writes[1], wantWrites) {
				t.Errorf("W=%d: backend columns of phase 1 = %v / %v, want %v / %v",
					workers, bk.reads[1], bk.writes[1], wantReads, wantWrites)
			}
		}
	}
}

// sameCols compares per-processor columns, treating nil and empty alike.
func sameCols(got, want [][]int32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}
