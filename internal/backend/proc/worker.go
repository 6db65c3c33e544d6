package proc

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
)

// Worker processes are spawned by the coordinator with their identity in
// the environment: the socket to dial, the rank to announce and the
// heartbeat period to keep. MaybeWorker at the top of a main() (or a
// TestMain) turns any binary that links this package into its own worker
// binary — the coordinator re-execs the running executable by default, so
// no separate binary ships.
const (
	// EnvSocket is the Unix-domain socket path the worker dials.
	EnvSocket = "REPRO_PROC_SOCKET"
	// EnvRank is the worker's rank (decimal).
	EnvRank = "REPRO_PROC_RANK"
	// EnvBeat is the heartbeat period (time.Duration string, optional).
	EnvBeat = "REPRO_PROC_BEAT"
)

// defaultBeat is the heartbeat period when EnvBeat is unset or invalid.
const defaultBeat = 25 * time.Millisecond

// MaybeWorker inspects the environment and, when this process was
// spawned as a proc-backend worker, runs the worker loop and exits —
// it never returns in that case. Call it first thing in main() and in
// TestMain before any other work.
func MaybeWorker() {
	socket := os.Getenv(EnvSocket)
	if socket == "" {
		return
	}
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil || rank < 0 {
		fmt.Fprintf(os.Stderr, "proc worker: bad %s=%q\n", EnvRank, os.Getenv(EnvRank))
		os.Exit(2)
	}
	beat := defaultBeat
	if d, err := time.ParseDuration(os.Getenv(EnvBeat)); err == nil && d > 0 {
		beat = d
	}
	if err := RunWorker(socket, rank, beat); err != nil {
		fmt.Fprintf(os.Stderr, "proc worker %d: %v\n", rank, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWorker dials the coordinator, announces its rank, then serves merge
// requests until a shutdown frame or connection loss. One goroutine
// serves merges; a second sends heartbeats; a write mutex keeps their
// frames from interleaving.
func RunWorker(socket string, rank int, beat time.Duration) error {
	conn, err := net.Dial("unix", socket)
	if err != nil {
		return fmt.Errorf("dial %s: %w", socket, err)
	}
	defer conn.Close()

	var wmu sync.Mutex
	send := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		//lint:lockorder-ok wmu exists precisely to serialize merge and heartbeat frames on this socket; it guards nothing else, so holding it across the bounded Unix-socket write cannot deadlock
		return writeFrame(conn, frame)
	}

	var e enc
	e.start(fHello, &rankHdr{uint32(rank)})
	if err := send(append([]byte(nil), e.finish()...)); err != nil {
		return fmt.Errorf("hello: %w", err)
	}

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		var be enc
		be.start(fBeat, &rankHdr{uint32(rank)})
		frame := append([]byte(nil), be.finish()...)
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if send(frame) != nil {
					return
				}
			}
		}
	}()

	w := &workerState{}
	var buf []byte
	for {
		var payload []byte
		payload, buf, err = readFrame(conn, buf)
		if err != nil {
			// Connection loss is the coordinator's teardown (or its
			// death); either way the worker's job is over.
			return nil
		}
		if payload[0] == fShutdown {
			return nil
		}
		res, err := w.serve(payload)
		if err != nil {
			return err
		}
		if err := send(res); err != nil {
			return err
		}
	}
}

// workerState is one worker's reusable merge scratch: the reference
// mergers plus one decoded-run buffer, so a steady-state merge allocates
// only its small fixed-field headers and decoder.
type workerState struct {
	mm  engine.MemMerger
	rm  engine.RouteMerger
	col []int32
	res enc
}

// Run sections feed the mergers: mem reads, mem writes or route
// destinations.
const (
	readRuns = iota
	writeRuns
	dstRuns
)

// section decodes one run section — a u32 run count, then runs of
// (proc u32, count u32, entries…) — and feeds each run to the merger
// named by kind. It rejects a processor id outside [0, nprocs) and one
// not strictly above the previous run's: a repeated processor would slip
// past the mergers' per-processor dedup and double-count its requests.
func (w *workerState) section(d *dec, nprocs, kind int) error {
	prev := -1
	for i, n := 0, int(d.word()); i < n; i++ {
		proc := int(d.word())
		w.col = d.col(w.col)
		switch {
		case d.err != nil:
			return d.err
		case proc >= nprocs:
			return fmt.Errorf("proc: run for processor %d, frame has %d processors", proc, nprocs)
		case proc <= prev:
			return fmt.Errorf("proc: run for processor %d follows processor %d: processor ids must strictly increase", proc, prev)
		}
		switch kind {
		case readRuns:
			w.mm.Read(proc, w.col)
		case writeRuns:
			w.mm.Write(proc, w.col)
		default:
			w.rm.Send(w.col)
		}
		prev = proc
	}
	return d.err
}

// checkRange validates a request header's owned range [lo, hi) against
// its cell (or component) space.
func checkRange(lo, hi, space uint32) error {
	if lo > hi || hi > space {
		return fmt.Errorf("proc: owned range [%d, %d) outside [0, %d)", lo, hi, space)
	}
	return nil
}

// trailing rejects bytes left over after a request's last section.
func trailing(d *dec) error {
	if d.off != len(d.b) {
		return fmt.Errorf("proc: %d trailing bytes after the last run section", len(d.b)-d.off)
	}
	return nil
}

// serve answers one request payload with its response frame.
func (w *workerState) serve(payload []byte) ([]byte, error) {
	d, t := newDec(payload)
	switch t {
	case fMemReq:
		return w.serveMem(&d)
	case fRouteReq:
		return w.serveRoute(&d)
	}
	return nil, fmt.Errorf("unexpected frame type %d", t)
}

// serveMem answers an fMemReq whose type byte d has consumed.
func (w *workerState) serveMem(d *dec) ([]byte, error) {
	var h memReqHdr
	h.fields(d)
	if d.err != nil {
		return nil, d.err
	}
	if err := checkRange(h.lo, h.hi, h.cells); err != nil {
		return nil, err
	}
	w.mm.Begin(int(h.lo), int(h.hi))
	err := w.section(d, int(h.nprocs), readRuns)
	if err == nil {
		err = w.section(d, int(h.nprocs), writeRuns)
	}
	if err == nil {
		err = trailing(d)
	}
	st := w.mm.End()
	if err != nil {
		return nil, err
	}
	w.res.start(fMemRes, &memResHdr{h.echo, st.KRead, st.KWrite, st.Viol})
	return w.res.finish(), nil
}

// serveRoute answers an fRouteReq whose type byte d has consumed.
func (w *workerState) serveRoute(d *dec) ([]byte, error) {
	var h routeReqHdr
	h.fields(d)
	if d.err != nil {
		return nil, d.err
	}
	if err := checkRange(h.lo, h.hi, h.p); err != nil {
		return nil, err
	}
	w.rm.Begin(int(h.lo), int(h.hi))
	err := w.section(d, int(h.nsenders), dstRuns)
	if err == nil {
		err = trailing(d)
	}
	st := w.rm.End()
	if err != nil {
		return nil, err
	}
	w.res.start(fRouteRes, &routeResHdr{h.echo, st.HRecv})
	return w.res.finish(), nil
}
