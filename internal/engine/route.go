package engine

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sched"
)

// RouteModel is the adapter contract of a message-routing machine (the
// BSP), generic over the message type M. The engine owns staging,
// h-relation measurement and deterministic inbox delivery; the model
// supplies naming, the superstep cost rule and message rendering.
type RouteModel[M any] interface {
	Model
	// Render formats a message for observer events.
	Render(msg M) string
}

// Sends is the per-component staging handle of one superstep: it charges
// local work and queues outgoing messages into the arena of the
// component's chunk. It is valid only during its component's body call:
// the engine reuses one handle for every component of a chunk, so a body
// must not retain it or share it with another component.
type Sends[M any] struct {
	// a is the arena of the chunk the component belongs to.
	a    *routeArena[M]
	work int64
	fail error
}

// AddWork charges k units of local computation.
func (s *Sends[M]) AddWork(k int64) {
	if k > 0 {
		s.work += k
	}
}

// Stage queues a message to component dst for delivery at the start of
// the next superstep. Destination validation is the adapter's job (it
// owns the error wording); see Fail.
func (s *Sends[M]) Stage(dst int32, msg M) {
	s.a.msg = append(s.a.msg, msg)
	s.a.dst = append(s.a.dst, dst)
}

// Fail marks this component's superstep as failed (first error wins).
func (s *Sends[M]) Fail(err error) {
	if s.fail == nil {
		s.fail = err
	}
}

// Chunk returns the index of the chunk the component runs in, in
// [0, Route.Chunks()): adapters key per-chunk scratch on it.
func (s *Sends[M]) Chunk() int { return s.a.chunk }

// routeArena is the staging storage of one superstep chunk:
// struct-of-arrays columns holding the message, destination and sender
// of every send by the chunk's components, in ascending sender order
// and, per sender, in issue order. The chunk loop folds the chunk's
// maxima of local work and of sends per component into the arena.
type routeArena[M any] struct {
	msg      []M
	dst, src []int32
	// work and sent are the chunk's maxima of local work and of messages
	// sent by one component.
	work, sent int64
	chunk      int
	sends      Sends[M]
}

// begin empties the arena for a new dispatch of its chunk.
func (a *routeArena[M]) begin() {
	a.msg, a.dst, a.src = a.msg[:0], a.dst[:0], a.src[:0]
	a.work, a.sent = 0, 0
}

// csrInbox is one superstep's deliveries in compressed-sparse-row form:
// component d's messages are msg[off[d]:off[d+1]], by ascending sender
// and, per sender, in issue order.
type csrInbox[M any] struct {
	msg []M
	off []int
}

// Route is the message-routing superstep engine. Machine adapters embed
// it and gain the superstep lifecycle: chunked body dispatch into
// per-chunk staging arenas, h-relation measurement, deterministic
// delivery into a ping-ponged CSR inbox by a counting sort, and observer
// emission.
type Route[M any] struct {
	Core
	model RouteModel[M]

	// arenas holds one staging arena per superstep chunk, indexed by the
	// sched.Blocks block index, so the host objects a machine keeps grow
	// with the worker budget, not with p.
	arenas []*routeArena[M]
	// inbox holds the deliveries visible in the current superstep; spare
	// ping-pongs with it as the next delivery target, so steady-state
	// supersteps reuse the previous-but-one superstep's buffers.
	inbox, spare csrInbox[M]
	// cnt holds per-destination receive counts after the counting sort's
	// count pass, and placement cursors during its place pass.
	cnt []int
	// bkReq is the reusable request handed to an attached Backend: one
	// header per chunk arena, borrowing the arena columns.
	bkReq RouteMergeReq
}

// InitRoute prepares the engine for a machine with the given model,
// parameters, input size and worker budget, with empty inboxes.
func (r *Route[M]) InitRoute(model RouteModel[M], params cost.Params, n, workers int) {
	r.Core.Init(model, params, n, workers)
	r.model = model
	r.inbox.off = make([]int, params.P+1)
	r.spare.off = make([]int, params.P+1)
	r.cnt = make([]int, params.P)
}

// Chunks returns the number of chunks a superstep body dispatch is split
// into: Sends.Chunk is below it.
func (r *Route[M]) Chunks() int { return sched.NumBlocks(r.Workers(), r.P()) }

// Incoming returns the messages delivered to component i at the start of
// the current superstep (i.e. sent during the previous superstep), in
// deterministic order (sorted by sender, then arrival order at the
// sender). The slice is capacity-capped: appending to it copies. Bodies
// must not write its elements: a transient-fault retry re-runs the
// superstep against the same inbox without restoring it.
func (r *Route[M]) Incoming(i int) []M {
	lo, hi := r.inbox.off[i], r.inbox.off[i+1]
	return r.inbox.msg[lo:hi:hi] //lint:colescape-ok documented borrow point: the pooled inbox row is valid until the next superstep commit
}

// Superstep runs one superstep: body is invoked once per component
// (concurrently over contiguous chunks) with the component's staging
// handle; at the barrier the h-relation is measured, the superstep is
// charged under the model's cost rule, and staged messages are routed
// into the inbox for the next superstep. Superstep is a no-op once the
// machine has erred.
func (r *Route[M]) Superstep(body func(i int, s *Sends[M])) {
	if r.Err() != nil {
		return
	}
	p := r.P()
	workers := r.Workers()
	if r.arenas == nil {
		r.arenas = make([]*routeArena[M], sched.NumBlocks(workers, p))
		for w := range r.arenas {
			a := &routeArena[M]{chunk: w}
			a.sends.a = a
			r.arenas[w] = a
		}
	}
	r.RunPhase(workers, p, func(w, lo, hi int) (int32, error) {
		a := r.arenas[w]
		a.begin()
		s := &a.sends
		var nf int32
		var first error
		for i := lo; i < hi; i++ {
			if r.CrashedProc(i) {
				// Masked components idle: no work, no sends. The crash
				// flag is written at the previous superstep's barrier,
				// so masking is visible here race-free.
				continue
			}
			d0 := len(a.dst)
			s.work, s.fail = 0, nil
			body(i, s)
			a.src = fillProc(a.src, len(a.dst), int32(i))
			a.work = max(a.work, s.work)
			a.sent = max(a.sent, int64(len(a.dst)-d0))
			if s.fail != nil {
				if first == nil {
					first = s.fail
				}
				nf++
			}
		}
		return nf, first //lint:colescape-ok first is the earliest component failure, an adapter-made error; it does not alias pooled storage
	}, r.commit)
}

// sendMaxima folds the chunk arenas' maxima: the superstep's w and the
// send side of its h-relation.
func (r *Route[M]) sendMaxima() (w, h int64) {
	for _, a := range r.arenas {
		w = max(w, a.work)
		h = max(h, a.sent)
	}
	return w, h
}

// count is the first pass of the counting sort: it tallies every
// destination's receive count into cnt and returns the receive side of
// the h-relation and the superstep's message total.
func (r *Route[M]) count() (hrecv int64, n int) {
	cnt := r.cnt
	clear(cnt)
	for _, a := range r.arenas {
		for _, d := range a.dst {
			cnt[d]++
		}
		n += len(a.dst)
	}
	for _, c := range cnt {
		hrecv = max(hrecv, int64(c))
	}
	return hrecv, n
}

// place is the second pass: it lays the offsets of the spare inbox out
// from the counts and scatters the n staged messages into their
// destinations' rows, then swaps the spare in. Arenas are scanned in
// chunk order and each in staging order, so every row lists its
// messages by ascending sender and, per sender, in issue order — the
// same order at every Workers setting.
func (r *Route[M]) place(n int) {
	next := &r.spare
	if n <= cap(next.msg) {
		next.msg = next.msg[:n]
	} else {
		next.msg = make([]M, n, max(n, 2*cap(next.msg))) //lint:hotpathalloc-ok amortized inbox growth to the high-water mark; steady-state supersteps do not allocate
	}
	pos := 0
	for d, c := range r.cnt {
		next.off[d] = pos
		r.cnt[d] = pos
		pos += c
	}
	next.off[len(r.cnt)] = n
	for _, a := range r.arenas {
		for j, d := range a.dst {
			next.msg[r.cnt[d]] = a.msg[j]
			r.cnt[d]++
		}
	}
	r.inbox, r.spare = r.spare, r.inbox
}

// commit measures the h-relation, consults the fault injector, charges
// the superstep and delivers the staged messages. The injector consult
// happens exactly once per attempt on the coordinating goroutine; a
// faulted attempt delivers nothing.
func (r *Route[M]) commit() PhaseStatus {
	if r.backend != nil {
		return r.commitBackend()
	}
	w, h := r.sendMaxima()
	hr, n := r.count()
	h = max(h, hr)
	if r.InjectorActive() {
		if v := r.consultInjector(0); v.fails() {
			return r.failAttempt(v.Class, r.verdictErr(v))
		}
	}
	r.deliver(n, Outcome{MaxOps: w, MaxRW: h})
	return PhaseCommitted
}

// commitBackend is the routing commit barrier when a Backend is
// attached: the chunk arenas' destination and sender columns ship to
// the backend for the receive side of the h-relation; the send side
// (the arena maxima), charging, observer emission and the delivery stay
// here.
func (r *Route[M]) commitBackend() PhaseStatus {
	w, h := r.sendMaxima()
	q := &r.bkReq
	q.Phase, q.Attempt, q.P = r.curPhase, r.attempt, r.P()
	q.Dsts, q.Srcs = q.Dsts[:0], q.Srcs[:0]
	for _, a := range r.arenas {
		q.Dsts = append(q.Dsts, a.dst)
		q.Srcs = append(q.Srcs, a.src)
	}
	st, err := r.backend.MergeRoute(*q)
	if err != nil {
		return r.failAttempt(r.transportFault(err))
	}
	h = max(h, st.HRecv)
	if r.InjectorActive() {
		if v := r.consultInjector(0); v.fails() { //lint:injectoronce-ok commitBackend IS the commit barrier when a backend is attached; one draw per attempt, same as the built-in path
			return r.failAttempt(v.Class, r.verdictErr(v))
		}
	}
	_, n := r.count()
	r.deliver(n, Outcome{MaxOps: w, MaxRW: h})
	return PhaseCommitted
}

// verdictErr is the error a failing verdict fails the attempt with: a
// transient verdict's own (the retries-exhausted message wraps it), a
// permanent one's naming the superstep.
func (r *Route[M]) verdictErr(v Verdict) error {
	if v.Class == FaultTransient {
		return v.Err
	}
	return fmt.Errorf("%s: superstep %d: %w", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
		r.model.Name(), r.Report().NumPhases(), v.Err)
}

// deliver charges the superstep, emits its sends, places the n counted
// messages into the next inbox and closes the superstep.
func (r *Route[M]) deliver(n int, o Outcome) {
	pc := r.chargePhase(o)
	if r.Observing() {
		r.emitRequests()
	}
	r.place(n)
	r.observePhaseEnd(pc)
}

// emitRequests renders the superstep's sends as observer events, grouped
// by ascending sender and in issue order. Addr carries the destination
// component.
func (r *Route[M]) emitRequests() {
	for _, a := range r.arenas {
		for j, msg := range a.msg {
			r.observeRequest(Request{Proc: int(a.src[j]), Kind: KindSend, Addr: a.dst[j],
				Payload: r.model.Render(msg)})
		}
	}
}
