package engine_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
)

// TestPhaseAllocsIndependentOfP pins the per-chunk arenas: a warmed-up
// phase (shared memory) allocates the same number of objects at p=1024
// and p=65536, and a warmed-up superstep (message routing) at p=4096 and
// p=65536, at one and two workers. Any host object kept per
// processor (a context, a staging buffer, an inbox row, a run header)
// would make the count grow with p.
func TestPhaseAllocsIndependentOfP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs p=65536 phases")
	}
	memAllocs := func(p, workers int) float64 {
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
	routeAllocs := func(p, workers int) float64 {
		m := newRouteMachine(t, p, workers)
		body := func(i int, s *engine.Sends[int64]) {
			s.AddWork(1)
			s.Stage(int32((i+1)%p), int64(i))
			s.Stage(int32(i/2), int64(-i))
		}
		m.Superstep(body)
		m.Superstep(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { m.Superstep(body) })
	}
	for _, workers := range []int{1, 2} {
		if small, large := memAllocs(1024, workers), memAllocs(65536, workers); small != large {
			t.Errorf("W=%d: steady-state phase allocates %.0f objects at p=1024 but %.0f at p=65536",
				workers, small, large)
		}
		if small, large := routeAllocs(4096, workers), routeAllocs(65536, workers); small != large {
			t.Errorf("W=%d: steady-state superstep allocates %.0f objects at p=4096 but %.0f at p=65536",
				workers, small, large)
		}
	}
}

// capturingBackend is the reference merge behind the Backend seam; it
// also expands the chunk columns of every merge into dense
// per-processor columns, so tests can check what the engine shipped
// from its arenas, and records how many chunk columns it got.
type capturingBackend struct {
	g             engine.MemMerger
	reads, writes [][][]int32
	chunks        []int
}

func (b *capturingBackend) Name() string { return "capture" }

// dense expands chunk columns into one column per processor in [0, p),
// failing on a processor id that is out of range or decreases.
func dense(addrs, procs [][]int32, p int) ([][]int32, error) {
	out := make([][]int32, p)
	prev := int32(-1)
	for j, col := range addrs {
		if len(procs[j]) != len(col) {
			return nil, fmt.Errorf("chunk %d: %d addresses, %d processors", j, len(col), len(procs[j]))
		}
		for k, a := range col {
			q := procs[j][k]
			if q < prev || int(q) >= p {
				return nil, fmt.Errorf("chunk %d entry %d: processor %d after %d (p=%d)", j, k, q, prev, p)
			}
			out[q] = append(out[q], a)
			prev = q
		}
	}
	return out, nil
}

func (b *capturingBackend) MergeMem(req engine.MemMergeReq) (engine.MergeStats, error) {
	reads, err := dense(req.Reads, req.ReadProcs, req.P)
	if err != nil {
		return engine.MergeStats{}, err
	}
	writes, err := dense(req.Writes, req.WriteProcs, req.P)
	if err != nil {
		return engine.MergeStats{}, err
	}
	b.reads = append(b.reads, reads)
	b.writes = append(b.writes, writes)
	b.chunks = append(b.chunks, len(req.Reads))
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
// backend gets one column per chunk, never one per processor; expanded
// per processor, the columns are empty for the crashed and the silent
// ones.
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
			if want := sched.NumBlocks(workers, 7); bk.chunks[1] != want {
				t.Errorf("W=%d: backend got %d chunk columns, want %d", workers, bk.chunks[1], want)
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

// routeBackend is the reference routing merge behind the Backend seam;
// it records how many chunk columns each merge carried.
type routeBackend struct {
	g      engine.RouteMerger
	chunks []int
}

func (b *routeBackend) Name() string { return "route" }

func (b *routeBackend) MergeMem(engine.MemMergeReq) (engine.MergeStats, error) {
	return engine.MergeStats{}, fmt.Errorf("route: no shared memory")
}

func (b *routeBackend) MergeRoute(req engine.RouteMergeReq) (engine.RouteStats, error) {
	if _, err := dense(req.Dsts, req.Srcs, req.P); err != nil {
		return engine.RouteStats{}, err
	}
	b.chunks = append(b.chunks, len(req.Dsts))
	return b.g.Merge(req, 0, req.P), nil
}

func (b *routeBackend) Close() error { return nil }

// inboxSends is what component i stages in every superstep of
// TestInboxOrderAcrossChunks, reps times over: destinations out of
// order, repeated, and to itself, so a row's order shows whether
// delivery kept ascending sender and, per sender, issue order.
func inboxSends(i, p, reps int) (dsts []int32, msgs []int64) {
	for r := 0; r < reps; r++ {
		for k := 0; k < 1+i%3; k++ {
			base := int64(100000*r + 100*i + 3*k)
			dsts = append(dsts, int32((p-1-i+2*k)%p), int32(i), int32((i*3)%p))
			msgs = append(msgs, base, base+1, base+2)
		}
	}
	return dsts, msgs
}

// TestInboxOrderAcrossChunks: every CSR inbox row lists its messages by
// ascending sender and, per sender, in issue order — the order the
// per-component inboxes delivered in before the inbox became one flat
// slice — at W=1 and W=8, inproc and through a backend, with component 4
// crashed at the first barrier (its sends stop from the next superstep
// on). One repetition stages a few messages per component; 600 stage
// about 38k, so the arena columns and the inbox grow through several
// doublings. The expected rows are built here by a direct replay of the
// sends.
func TestInboxOrderAcrossChunks(t *testing.T) {
	const p = 11
	want := func(reps int, crashed bool) [][]int64 {
		rows := make([][]int64, p)
		for i := 0; i < p; i++ {
			if crashed && i == 4 {
				continue
			}
			dsts, msgs := inboxSends(i, p, reps)
			for k, d := range dsts {
				rows[d] = append(rows[d], msgs[k])
			}
		}
		return rows
	}
	for _, reps := range []int{1, 600} {
		for _, workers := range []int{1, 8} {
			for _, viaBackend := range []bool{false, true} {
				m := newRouteMachine(t, p, workers)
				var bk *routeBackend
				if viaBackend {
					bk = &routeBackend{}
					m.SetBackend(bk)
				}
				m.InjectFaults(scripted(map[int]engine.Verdict{
					0: {Class: engine.FaultCrash, Err: errScripted, Proc: 4, Addr: -1},
				}), engine.RetryPolicy{}, true)
				body := func(i int, s *engine.Sends[int64]) {
					dsts, msgs := inboxSends(i, p, reps)
					s.Stage(dsts[0], msgs[0])
					s.StageBatch(dsts[1:], msgs[1:])
				}
				for step, crashed := range []bool{false, true} {
					m.Superstep(body)
					if err := m.Err(); err != nil {
						t.Fatal(err)
					}
					rows := want(reps, crashed)
					for d := 0; d < p; d++ {
						if got := m.Incoming(d); !slices.Equal(got, rows[d]) {
							t.Fatalf("reps=%d W=%d backend=%t superstep %d: Incoming(%d) differs from the replay (%d vs %d messages)",
								reps, workers, viaBackend, step, d, len(got), len(rows[d]))
						}
					}
				}
				if viaBackend {
					if want := sched.NumBlocks(workers, p); !slices.Equal(bk.chunks, []int{want, want}) {
						t.Errorf("W=%d: backend chunk columns per merge = %v, want %d each", workers, bk.chunks, want)
					}
				}
			}
		}
	}
}
