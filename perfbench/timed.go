package main

import (
	"repro/internal/engine"
)

// timedBackend wraps a commit-barrier backend for the traced proc run:
// every MergeMem/MergeRoute becomes a "proc.merge" span, and the request
// columns it carried are counted. Name and Close pass through to the
// wrapped backend. It does not forward engine.FaultRealizer, so it is
// only for fault-free cells.
type timedBackend struct {
	engine.Backend
	tr     *tracer
	parent int32
	group  string
	// ranks is the wrapped backend's worker count, for the frame sizes.
	ranks int

	merges  int
	entries int64
	bytes   int64
}

// Frame sizes of the proc wire format (internal/backend/proc/proto.go),
// length prefix included: fixed request/response fields per rank, and
// the u32 entry count every column carries.
const (
	memReqHead    = 4 + 1 + 4*3 + 1 + 4*3 // len, type, phase/attempt/cells, packed, lo/hi/nprocs
	memResBytes   = 4 + 1 + 4*2 + 8*2 + 4 // len, type, phase/attempt, kread/kwrite, viol
	routeReqHead  = 4 + 1 + 4*6           // len, type, phase/attempt/p/lo/hi/nsenders
	routeResBytes = 4 + 1 + 4*2 + 8       // len, type, phase/attempt, hrecv
	columnHead    = 4
	entryBytes    = 4
)

// MergeMem implements engine.Backend.
func (b *timedBackend) MergeMem(req engine.MemMergeReq) (engine.MergeStats, error) {
	id := b.tr.begin("proc.merge", b.group, b.parent)
	st, err := b.Backend.MergeMem(req)
	b.tr.end(id)
	var n int64
	for _, c := range req.Reads {
		n += int64(len(c))
	}
	for _, c := range req.Writes {
		n += int64(len(c))
	}
	b.merges++
	b.entries += n
	// Every rank gets every column (filtered to its range); each entry
	// goes to exactly one rank.
	cols := int64(len(req.Reads) + len(req.Writes))
	b.bytes += int64(b.ranks)*(memReqHead+columnHead*cols+memResBytes) + entryBytes*n
	return st, err
}

// MergeRoute implements engine.Backend.
func (b *timedBackend) MergeRoute(req engine.RouteMergeReq) (engine.RouteStats, error) {
	id := b.tr.begin("proc.merge", b.group, b.parent)
	st, err := b.Backend.MergeRoute(req)
	b.tr.end(id)
	var n int64
	for _, c := range req.Dsts {
		n += int64(len(c))
	}
	b.merges++
	b.entries += n
	b.bytes += int64(b.ranks)*(routeReqHead+columnHead*int64(len(req.Dsts))+routeResBytes) + entryBytes*n
	return st, err
}
