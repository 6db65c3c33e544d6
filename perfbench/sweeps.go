package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// goldenSeed is the seed of the committed Table 1 golden rendering.
const goldenSeed = 1998

// chaosN and chaosSeeds size the chaos matrix: 4 consecutive seeds of the
// standard mixes × models × algorithms, 416 fault cells.
const (
	chaosN     = 256
	chaosSeeds = 4
)

// cellClock times sweep cells between successive progress lines:
// sweep.Run writes one "\r…" line after each cell is run and persisted,
// and a final newline.
type cellClock struct {
	last time.Time
	lat  []time.Duration
}

func (c *cellClock) Write(p []byte) (int, error) {
	if len(p) > 0 && p[0] == '\r' {
		now := time.Now()
		c.lat = append(c.lat, now.Sub(c.last))
		c.last = now
	}
	return len(p), nil
}

// runSweep runs cells through sweep.Run as one "sweep.Run" span under
// root and returns the summary and the per-cell latencies.
func runSweep(tr *tracer, root int32, cells []sweep.Cell, opt sweep.Options) (*sweep.Summary, []time.Duration, error) {
	clock := &cellClock{}
	id := tr.begin("sweep.Run", "", root)
	clock.last = time.Now()
	opt.Progress = clock
	s, err := sweep.Run(cells, opt)
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: %w", err)
	}
	return s, clock.lat, nil
}

// runCells is the traced run's per-layer pass: the same cells through
// sweep.RunCell directly, one span each, with no persistence. It is what
// separates sweep.runcell_s from sweep.persist_s.
func runCells(b *bench, tr *tracer, cells []sweep.Cell, workers int, group func(sweep.Cell) string) {
	root := tr.begin("layers", "", -1)
	for _, c := range cells {
		id := tr.begin("sweep.RunCell", group(c), root)
		rec := sweep.RunCell(c, sweep.RunConfig{Workers: workers})
		tr.end(id)
		b.verify(checkRecord(rec))
	}
	tr.end(root)
}

// checkRecord accepts ok records (which must carry a verified answer) and
// diagnosed fault records; anything else is a failure.
func checkRecord(r sweep.Record) error {
	switch {
	case r.Status == sweep.StatusOK && r.Verified:
		return nil
	case r.Status == sweep.StatusDiagnosed && r.Faults != "":
		return nil
	case r.Status == sweep.StatusSkipped:
		return fmt.Errorf("%s: skipped (%s)", r.Key, r.Reason)
	}
	return fmt.Errorf("%s: %s: %s", r.Key, r.Status, r.Error)
}

// sweepLedger fills the sweep.* metrics and the per-group cell times
// (metric name prefix+group+"_s") from the traced passes.
func sweepLedger(tr *tracer, l ledger, s *sweep.Summary, prefix string, groups []string) {
	runs := tr.perRoot("pass", "sweep.Run", "", false)
	cells := tr.perRoot("layers", "sweep.RunCell", "", false)
	var persist []float64
	for i := range min(len(runs), len(cells)) {
		persist = append(persist, runs[i]-cells[i])
	}
	l["sweep.runcell_s"] = median(cells)
	l["sweep.persist_s"] = median(persist)
	l["sweep.cells"] = float64(s.Total)
	l["sweep.skipped"] = float64(s.Skipped)
	l["sweep.failed"] = float64(s.Failed)
	for _, g := range groups {
		l[prefix+g+"_s"] = median(tr.perRoot("layers", "sweep.RunCell", g, false))
	}
}

// tablesBench renders Table 1 as cmd/tables does: the tables preset
// through sweep.Run with default options, in process, then
// RenderTablesFromRecords. Experiment cells ignore the sweep's Workers;
// the engine runs them at its default parallelism (GOMAXPROCS).
type tablesBench struct {
	b      *bench
	traced bool
	last   *sweep.Summary
	// phases and modelTime total the cost reports of one pass.
	phases, modelTime float64
}

// subTable groups experiment cells by Table 1 sub-table: "t1" … "t4".
func subTable(c sweep.Cell) string {
	return strings.ToLower(strings.SplitN(c.Exp, ".", 2)[0])
}

func (w *tablesBench) grid() []sweep.Cell { return sweep.PresetTables(w.b.seed) }

func (w *tablesBench) prepare() error {
	want, err := os.ReadFile(w.b.golden)
	if err != nil {
		return fmt.Errorf("golden tables: %w", err)
	}
	s, err := sweep.Run(sweep.PresetTables(goldenSeed), sweep.Options{})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	got, err := sweep.RenderTablesFromRecords(s.Records)
	if err == nil && got != string(want) {
		err = fmt.Errorf("tables at seed %d differ from %s", goldenSeed, w.b.golden)
	}
	w.b.verify(err)

	if w.traced {
		w.phases, w.modelTime = 0, 0
		for _, c := range w.grid() {
			_, rep, err := core.ExperimentByID(c.Exp).Measure(c.N, c.Seed)
			if err != nil {
				return fmt.Errorf("%s at n=%d: %w", c.Exp, c.N, err)
			}
			w.phases += float64(rep.NumPhases())
			w.modelTime += float64(rep.TotalTime)
		}
	}
	return nil
}

func (w *tablesBench) pass(tr *tracer, root int32) (passOut, error) {
	t0 := time.Now()
	cells := w.grid()
	setup := time.Since(t0)
	s, lat, err := runSweep(tr, root, cells, sweep.Options{})
	if err != nil {
		return passOut{}, err
	}
	id := tr.begin("core.render", "", root)
	_, rerr := sweep.RenderTablesFromRecords(s.Records)
	tr.end(id)
	w.last = s
	return passOut{cells: lat, setups: []time.Duration{setup}, verify: func() {
		for _, r := range s.Records {
			w.b.verify(checkRecord(r))
		}
		w.b.verify(rerr)
	}}, nil
}

func (w *tablesBench) layers(tr *tracer) { runCells(w.b, tr, w.grid(), 0, subTable) }

func (w *tablesBench) ledger(tr *tracer, l ledger) {
	sweepLedger(tr, l, w.last, "core.", []string{"t1", "t2", "t3", "t4"})
	l["core.render_s"] = median(tr.perRoot("pass", "core.render", "", false))
	l["engine.phases"] = w.phases
	l["engine.model_time"] = w.modelTime
}

// chaosBench runs the chaos matrix as `parsim sweep -preset chaos -o …
// -csv …` does, JSONL and CSV included.
type chaosBench struct {
	b    *bench
	dir  string
	last *sweep.Summary
	// first is the first checked pass's counts and output digest; every
	// later pass must reproduce it exactly.
	first *chaosDigest
}

type chaosDigest struct {
	ok, diagnosed, skipped, failed   int
	injected, recovered, maskedProcs int
	jsonl, csv                       [sha256.Size]byte
}

func (w *chaosBench) grid() []sweep.Cell {
	seeds := make([]int64, chaosSeeds)
	for i := range seeds {
		seeds[i] = w.b.seed + int64(i)
	}
	return sweep.PresetChaos(seeds, chaosN, false)
}

func (w *chaosBench) prepare() error {
	w.dir = filepath.Join(w.b.dir, "chaos")
	return os.MkdirAll(w.dir, 0o755)
}

func (w *chaosBench) pass(tr *tracer, root int32) (passOut, error) {
	t0 := time.Now()
	cells := w.grid()
	setup := time.Since(t0)
	opt := sweep.Options{
		JSONL:   filepath.Join(w.dir, "chaos.jsonl"),
		CSV:     filepath.Join(w.dir, "chaos.csv"),
		Workers: engineWorkers,
	}
	s, lat, err := runSweep(tr, root, cells, opt)
	if err != nil {
		return passOut{}, err
	}
	w.last = s
	return passOut{cells: lat, setups: []time.Duration{setup}, verify: func() {
		for _, r := range s.Records {
			w.b.verify(checkRecord(r))
		}
		w.b.verify(w.checkRepeat(s, opt))
	}}, nil
}

// checkRepeat compares a pass's counts and output bytes with the first
// pass's: the chaos matrix is deterministic in its seeds.
func (w *chaosBench) checkRepeat(s *sweep.Summary, opt sweep.Options) error {
	d := &chaosDigest{
		ok: s.OK, diagnosed: s.Diagnosed, skipped: s.Skipped, failed: s.Failed,
		injected: s.Injected, recovered: s.Recovered, maskedProcs: s.MaskedProcs,
	}
	for _, f := range []struct {
		path string
		sum  *[sha256.Size]byte
	}{{opt.JSONL, &d.jsonl}, {opt.CSV, &d.csv}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if n := bytes.Count(data, []byte("\n")); n < len(s.Records) {
			return fmt.Errorf("%s has %d lines for %d records", f.path, n, len(s.Records))
		}
		*f.sum = sha256.Sum256(data)
	}
	if w.first == nil {
		w.first = d
		return nil
	}
	if *d != *w.first {
		return fmt.Errorf("chaos pass differs from the first pass: %+v vs %+v", *d, *w.first)
	}
	return nil
}

func (w *chaosBench) layers(tr *tracer) {
	runCells(w.b, tr, w.grid(), engineWorkers, func(c sweep.Cell) string { return c.Model })
}

func (w *chaosBench) ledger(tr *tracer, l ledger) {
	sweepLedger(tr, l, w.last, "chaos.", []string{"qsm", "sqsm", "crqw", "bsp", "gsm"})
	s := w.last
	l["chaos.verified"] = float64(s.OK)
	l["chaos.diagnosed"] = float64(s.Diagnosed)
	l["chaos.injected"] = float64(s.Injected)
	l["chaos.recovered"] = float64(s.Recovered)
	l["chaos.masked"] = float64(s.MaskedProcs)
}
