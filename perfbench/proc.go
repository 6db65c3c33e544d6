package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/proc"
	"repro/internal/engine"
	"repro/internal/sweep"
)

// procN is the input size of the proc cells: large enough that the merge
// round trip, not process start, is most of a cell.
const procN = 65536

// procWorkerCounts are the worker-process counts every proc cell runs at.
var procWorkerCounts = []int{1, 2}

// procCells are fault-free machine cells covering each merge path: the
// QSM-family MergeMem (parity, contention OR, prefix, dart LAC), BSP's
// MergeRoute and the GSM.
func procCells(seed int64) []sweep.Cell {
	return []sweep.Cell{
		{Model: "qsm", Alg: "parity", N: procN, Seed: seed},
		{Model: "qsm", Alg: "or-contention", N: procN, Seed: seed},
		{Model: "qsm", Alg: "prefix", N: procN, Seed: seed},
		{Model: "qsm", Alg: "lac-dart", N: procN, Seed: seed},
		{Model: "bsp", Alg: "bsp-parity", N: procN, Seed: seed},
		{Model: "gsm", Alg: "gsm-parity", N: procN, Seed: seed},
	}
}

// procBench runs each cell as `parsim -backend proc` does: backend.New,
// sweep.ExecuteWith, Close — once per worker count.
type procBench struct {
	b     *bench
	cells []sweep.Cell
	// ref holds the inproc outcome of each cell, computed untimed.
	ref []*sweep.Outcome

	// Per traced pass: request entries, computed frame bytes, merges,
	// and the coordinator's spawn/respawn counts.
	requests, bytes, merges, spawns, respawns []float64
}

func (w *procBench) prepare() error {
	w.cells = procCells(w.b.seed)
	w.ref = make([]*sweep.Outcome, len(w.cells))
	for i, c := range w.cells {
		out, err := sweep.ExecuteWith(c, false, engineWorkers, nil)
		if err != nil {
			return fmt.Errorf("inproc reference %s: %w", c.Alg, err)
		}
		if !out.Verified {
			return fmt.Errorf("inproc reference %s: answer failed the oracle", c.Alg)
		}
		w.ref[i] = out
	}
	return nil
}

// procRun is one proc cell's outcome, checked after the clock stops.
type procRun struct {
	ref     int
	workers int
	out     *sweep.Outcome
	err     error
	stats   proc.Stats
}

func (w *procBench) pass(tr *tracer, root int32) (passOut, error) {
	var po passOut
	var runs []procRun
	var requests, bytes, merges, spawns, respawns float64
	for _, nw := range procWorkerCounts {
		group := fmt.Sprintf("w%d", nw)
		for i, c := range w.cells {
			run := procRun{ref: i, workers: nw}
			cell := tr.begin("proc.cell", group, root)
			t0 := time.Now()
			id := tr.begin("proc.spawn", group, cell)
			bk, err := backend.New(backend.Config{Name: "proc", ProcWorkers: nw})
			tr.end(id)
			t1 := time.Now()
			if err != nil {
				run.err = err
				runs = append(runs, run)
				tr.end(cell)
				continue
			}
			// Untraced passes run the bare backend; tb's counters stay 0.
			var use engine.Backend = bk
			tb := &timedBackend{Backend: bk, tr: tr, group: group, ranks: nw}
			if tr != nil {
				use = tb
			}
			tb.parent = tr.begin("engine.execute", group, cell)
			run.out, run.err = sweep.ExecuteWith(c, false, engineWorkers, use)
			tr.end(tb.parent)
			if co, ok := bk.(*proc.Coordinator); ok {
				run.stats = co.Stats()
			}
			w.b.childPeak = max(w.b.childPeak, childrenHWM())
			id = tr.begin("proc.close", group, cell)
			if cerr := bk.Close(); cerr != nil && run.err == nil {
				run.err = fmt.Errorf("close: %w", cerr)
			}
			tr.end(id)
			t2 := time.Now()
			tr.end(cell)
			po.setups = append(po.setups, t1.Sub(t0))
			po.cells = append(po.cells, t2.Sub(t0))
			runs = append(runs, run)
			requests += float64(tb.entries)
			bytes += float64(tb.bytes)
			merges += float64(tb.merges)
			spawns += float64(run.stats.Spawns)
			respawns += float64(run.stats.Respawns)
		}
	}
	if tr != nil {
		w.requests = append(w.requests, requests)
		w.bytes = append(w.bytes, bytes)
		w.merges = append(w.merges, merges)
		w.spawns = append(w.spawns, spawns)
		w.respawns = append(w.respawns, respawns)
	}
	po.verify = func() {
		for _, r := range runs {
			w.b.verify(w.check(r))
		}
	}
	return po, nil
}

// check compares one proc cell with its inproc reference.
func (w *procBench) check(r procRun) error {
	c, ref := w.cells[r.ref], w.ref[r.ref]
	name := fmt.Sprintf("%s/%s on proc×%d", c.Model, c.Alg, r.workers)
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: %w", name, r.err)
	case !r.out.Verified:
		return fmt.Errorf("%s: answer failed the oracle", name)
	case !reflect.DeepEqual(r.out.Report, ref.Report):
		return fmt.Errorf("%s: cost report differs from inproc", name)
	case r.out.Summary != ref.Summary:
		return fmt.Errorf("%s: answer %q differs from inproc %q", name, r.out.Summary, ref.Summary)
	case r.stats.Spawns != r.workers || r.stats.Respawns != 0:
		return fmt.Errorf("%s: %d spawns and %d respawns, want %d and 0", name, r.stats.Spawns, r.stats.Respawns, r.workers)
	}
	return nil
}

// layers runs the same cells on the built-in merge: the floor the proc
// transport is compared against.
func (w *procBench) layers(tr *tracer) {
	root := tr.begin("inproc", "", -1)
	for i, c := range w.cells {
		id := tr.begin("engine.inproc", c.Alg, root)
		out, err := sweep.ExecuteWith(c, false, engineWorkers, nil)
		tr.end(id)
		if err == nil && !reflect.DeepEqual(out.Report, w.ref[i].Report) {
			err = fmt.Errorf("inproc %s: cost report differs between runs", c.Alg)
		}
		w.b.verify(err)
	}
	tr.end(root)
}

func (w *procBench) ledger(tr *tracer, l ledger) {
	var phases, modelTime float64
	for _, r := range w.ref {
		phases += float64(r.Report.NumPhases())
		modelTime += float64(r.Report.TotalTime)
	}
	k := float64(len(procWorkerCounts))
	l["engine.phases"] = k * phases
	l["engine.model_time"] = k * modelTime
	l["engine.requests"] = median(w.requests)
	l["engine.coord_s"] = median(tr.perRoot("pass", "engine.execute", "", true))
	if req := median(w.requests) / k; req > 0 {
		inproc := median(tr.perRoot("inproc", "engine.inproc", "", false))
		l["engine.inproc_ns_per_req"] = inproc * 1e9 / req
	}

	l["proc.spawn_s"] = median(tr.perRoot("pass", "proc.spawn", "", false))
	l["proc.close_s"] = median(tr.perRoot("pass", "proc.close", "", false))
	l["proc.merge_s"] = median(tr.perRoot("pass", "proc.merge", "", false))
	l["proc.merges"] = median(w.merges)
	var merges []float64
	for _, r := range tr.roots("pass") {
		for _, s := range tr.under(r.ID, "proc.merge", "") {
			merges = append(merges, float64(s.dur())/float64(time.Microsecond))
		}
	}
	l["proc.merge_p50_us"] = decile(merges, 5)
	l["proc.merge_p90_us"] = decile(merges, 9)
	l["proc.bytes_computed"] = median(w.bytes)
	w1 := median(tr.perRoot("pass", "proc.merge", "w1", false))
	w2 := median(tr.perRoot("pass", "proc.merge", "w2", false))
	l["proc.w1.merge_s"] = w1
	l["proc.w2.merge_s"] = w2
	if w1 > 0 {
		l["proc.scale_w2_over_w1"] = w2 / w1
	}
	l["proc.spawns"] = median(w.spawns)
	l["proc.respawns"] = median(w.respawns)
}
