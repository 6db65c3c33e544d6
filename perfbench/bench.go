package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// workload is one of the benchmark's input sets. A pass is one full run
// of what a user waits for; the harness times passes, the workload
// checks their outputs.
type workload interface {
	// prepare runs the untimed set-up: reference outputs and one-off
	// correctness checks.
	prepare() error
	// pass runs one timed pass under root (−1 and a nil tracer when
	// untraced) and returns its per-cell latencies, set-up samples and
	// the checks to run once the clock has stopped.
	pass(tr *tracer, root int32) (passOut, error)
	// layers runs the traced run's untimed per-layer pass.
	layers(tr *tracer)
	// ledger derives the workload's per-layer metrics from the spans.
	ledger(tr *tracer, l ledger)
}

type passOut struct {
	cells, setups []time.Duration
	verify        func()
}

// bench holds one invocation's settings and its correctness tally.
type bench struct {
	seed   int64
	budget time.Duration
	// dir receives sweep outputs and the span file.
	dir string
	// golden is the seed-1998 Table 1 rendering the tables workload is
	// checked against.
	golden string

	// childPeak is the largest summed peak resident memory of the child
	// processes alive at one time, in bytes (proc workers).
	childPeak int64

	attempted, failed int
	problems          []string
}

// verify counts one checked unit (a cell, a rendering, a pass-to-pass
// comparison) and records it as failed when err is non-nil.
func (b *bench) verify(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// sample is one pass as the harness measured it.
type sample struct {
	wall          time.Duration
	cells, setups []time.Duration
	alloc         uint64
	mallocs       uint64
	gcs           uint32
	gcCPU, cpu    float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

type runtimeStats struct {
	mem        runtime.MemStats
	gcCPU, cpu float64
}

func readRuntime() runtimeStats {
	var s runtimeStats
	runtime.ReadMemStats(&s.mem)
	metrics.Read(cpuMetrics)
	s.gcCPU = cpuMetrics[0].Value.Float64()
	s.cpu = cpuMetrics[1].Value.Float64()
	return s
}

// measure runs timed passes until budget is spent and at least minPasses
// have run, after one untimed warm-up pass when warm is set. Each pass
// starts after a forced GC, so passes begin from the same heap state.
func (b *bench) measure(w workload, tr *tracer, budget time.Duration, minPasses int, warm bool) ([]sample, error) {
	var out []sample
	start := time.Now()
	for i := 0; ; i++ {
		timed := i > 0 || !warm
		if timed && len(out) >= minPasses && time.Since(start) >= budget {
			return out, nil
		}
		runtime.GC()
		before := readRuntime()
		var root int32 = -1
		if timed {
			root = tr.begin("pass", "", -1)
		}
		t0 := time.Now()
		po, err := w.pass(tr, root)
		wall := time.Since(t0)
		tr.end(root)
		after := readRuntime()
		if err != nil {
			return nil, err
		}
		po.verify()
		if !timed {
			start = time.Now()
			continue
		}
		out = append(out, sample{
			wall: wall, cells: po.cells, setups: po.setups,
			alloc:   after.mem.TotalAlloc - before.mem.TotalAlloc,
			mallocs: after.mem.Mallocs - before.mem.Mallocs,
			gcs:     after.mem.NumGC - before.mem.NumGC,
			gcCPU:   after.gcCPU - before.gcCPU,
			cpu:     after.cpu - before.cpu,
		})
		if tr != nil {
			w.layers(tr)
		}
	}
}

// endToEnd measures the untraced run and returns its end-to-end metrics.
func (b *bench) endToEnd(w workload) (ledger, []sample, error) {
	if err := w.prepare(); err != nil {
		return nil, nil, err
	}
	// peak_rss_mb covers the passes alone: return the memory prepare
	// freed and restart the high-water mark from what is left.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	ss, err := b.measure(w, nil, b.budget, 3, true)
	if err != nil {
		return nil, nil, err
	}
	// Cell percentiles are taken per pass and their median reported:
	// pooled over a run, a percentile that falls in a gap between two
	// kinds of cell (proc runs 12 very different cells a pass) jumps
	// with one slow cell; the median pass's percentile does not. For
	// the same reason setup_s is each pass's mean set-up (proc spawns
	// one and two workers a pass), median over the passes.
	var walls, p50, p90, allocs, setups []float64
	for _, s := range ss {
		walls = append(walls, s.wall.Seconds())
		cells := scaled(s.cells, time.Millisecond)
		p50 = append(p50, decile(cells, 5))
		p90 = append(p90, decile(cells, 9))
		allocs = append(allocs, float64(s.alloc)/1e6)
		var setup time.Duration
		for _, d := range s.setups {
			setup += d
		}
		setups = append(setups, setup.Seconds()/float64(len(s.setups)))
	}
	self, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, nil, err
	}
	l := ledger{
		"wall_s":      median(walls),
		"cell_p50_ms": median(p50),
		"cell_p90_ms": median(p90),
		"setup_s":     median(setups),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": float64(self+b.childPeak) / 1e6,
	}
	return l, ss, nil
}

// perLayer measures the traced run: untraced passes first (the baseline
// for the tracing overhead and the runtime counters), then traced passes
// whose spans feed the ledger.
func (b *bench) perLayer(w workload, tr *tracer) (ledger, error) {
	if err := w.prepare(); err != nil {
		return nil, err
	}
	plain, err := b.measure(w, nil, b.budget/3, 3, true)
	if err != nil {
		return nil, err
	}
	if _, err := b.measure(w, tr, 2*b.budget/3, 2, false); err != nil {
		return nil, err
	}
	tr.finish()
	l := ledger{}
	w.ledger(tr, l)

	var walls, mallocs, gcs []float64
	var gcCPU, cpu float64
	for _, s := range plain {
		walls = append(walls, s.wall.Seconds())
		mallocs = append(mallocs, float64(s.mallocs))
		gcs = append(gcs, float64(s.gcs))
		gcCPU += s.gcCPU
		cpu += s.cpu
	}
	l["runtime.mallocs"] = median(mallocs)
	l["runtime.num_gc"] = median(gcs)
	if cpu > 0 {
		l["runtime.gc_cpu_frac"] = gcCPU / cpu
	}
	var traced []float64
	for _, r := range tr.roots("pass") {
		traced = append(traced, r.dur().Seconds())
	}
	l["trace.overhead_s"] = median(traced) - median(walls)
	return l, nil
}

// resetPeakRSS restarts this process's peak resident memory (VmHWM)
// from its current resident memory.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident memory: %w", err)
	}
	return nil
}

// vmHWM reads the peak resident memory (VmHWM) from a /proc status file,
// in bytes.
func vmHWM(status string) (int64, error) {
	data, err := os.ReadFile(status)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 10, 64)
			return n * 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", status)
}

// childrenHWM sums the peak resident memory of this process's live
// children (the proc workers), in bytes. getrusage cannot give it: a
// child started by vfork+exec inherits its parent's high-water mark.
func childrenHWM() int64 {
	lists, _ := filepath.Glob("/proc/self/task/*/children")
	var sum int64
	for _, l := range lists {
		data, err := os.ReadFile(l)
		if err != nil {
			continue
		}
		for _, pid := range strings.Fields(string(data)) {
			// A worker that exited since the list was read counts 0.
			n, _ := vmHWM("/proc/" + pid + "/status")
			sum += n
		}
	}
	return sum
}
