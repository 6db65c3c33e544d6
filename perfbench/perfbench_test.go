package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/backend/proc"
	"repro/internal/sweep"
)

// TestMain lets the proc backend's re-executed test binary become a
// worker instead of running the tests again.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	os.Exit(m.Run())
}

// TestTimedBackendTransparent checks that wrapping the proc backend for
// the traced run changes nothing the model computes: the cost report and
// the event stream equal the unwrapped proc run's and the inproc run's.
func TestTimedBackendTransparent(t *testing.T) {
	cells := []sweep.Cell{
		{Model: "qsm", Alg: "parity", N: 256, Seed: 3},
		{Model: "qsm", Alg: "prefix", N: 256, Seed: 3},
		{Model: "bsp", Alg: "bsp-parity", N: 256, Seed: 3},
		{Model: "gsm", Alg: "gsm-parity", N: 256, Seed: 3},
	}
	for _, c := range cells {
		t.Run(c.Model+"/"+c.Alg, func(t *testing.T) {
			want, err := sweep.ExecuteWith(c, true, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain := runProc(t, c, nil)
			tr := newTracer()
			tb := &timedBackend{tr: tr, parent: -1, group: "w2", ranks: 2}
			wrapped := runProc(t, c, tb)

			for name, got := range map[string]*sweep.Outcome{"proc": plain, "timed proc": wrapped} {
				if !reflect.DeepEqual(got.Report, want.Report) {
					t.Errorf("%s: cost report differs from inproc", name)
				}
				if got.Stream != want.Stream {
					t.Errorf("%s: event stream differs from inproc", name)
				}
				if !got.Verified {
					t.Errorf("%s: answer failed the oracle", name)
				}
			}
			if tb.merges == 0 || tb.entries == 0 || tb.bytes <= 4*tb.entries {
				t.Errorf("counted %d merges, %d entries, %d bytes", tb.merges, tb.entries, tb.bytes)
			}
			if len(tr.spans) != tb.merges {
				t.Errorf("%d merge spans for %d merges", len(tr.spans), tb.merges)
			}
		})
	}
}

// runProc runs c with events on two worker processes, through tb when it
// is non-nil.
func runProc(t *testing.T, c sweep.Cell, tb *timedBackend) *sweep.Outcome {
	t.Helper()
	bk, err := backend.New(backend.Config{Name: "proc", ProcWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	use := bk
	if tb != nil {
		tb.Backend = bk
		use = tb
		if tb.Name() != "proc" {
			t.Errorf("wrapped backend is named %q", tb.Name())
		}
	}
	out, err := sweep.ExecuteWith(c, true, 2, use)
	if cerr := use.Close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQuantilesMatchPython pins quantiles to statistics.quantiles.
func TestQuantilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10, []float64{1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9}},
		{[]float64{3, 1, 2}, 4, []float64{1, 2, 3}},
		{[]float64{5, 1}, 4, []float64{0, 3, 6}},
		{[]float64{2.5, 7, 1, 9, 4, 4.5, 8}, 10, []float64{0.7, 1.9, 3.1, 4.1, 4.5, 6.5, 7.6, 8.4, 9.2}},
	} {
		got := quantiles(tc.data, tc.n)
		for i := range tc.want {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("quantiles(%v, %d) = %v, want %v", tc.data, tc.n, got, tc.want)
				break
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestSelfTime checks self time and per-root sums on a hand-built tree.
func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	p1 := tr.add("pass", "", -1, 0, 100)
	c := tr.add("engine.execute", "w1", p1, 10, 90)
	tr.add("proc.merge", "w1", c, 20, 30)
	tr.add("proc.merge", "w1", c, 40, 70)
	p2 := tr.add("pass", "", -1, 200, 260)
	c2 := tr.add("engine.execute", "w2", p2, 200, 250)
	tr.add("proc.merge", "w2", c2, 210, 215)
	tr.finish()

	if got := tr.spans[c].Self; got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := tr.spans[p1].Self; got != 20 {
		t.Errorf("root self time = %d, want 20", got)
	}
	ns := func(v []float64) []float64 {
		for i := range v {
			v[i] *= 1e9
		}
		return v
	}
	if got := ns(tr.perRoot("pass", "proc.merge", "", false)); !near(got, []float64{40, 5}) {
		t.Errorf("merge time per pass = %v, want [40 5]", got)
	}
	if got := ns(tr.perRoot("pass", "engine.execute", "", true)); !near(got, []float64{40, 45}) {
		t.Errorf("execute self time per pass = %v, want [40 45]", got)
	}
	if got := ns(tr.perRoot("pass", "proc.merge", "w2", false)); !near(got, []float64{0, 5}) {
		t.Errorf("w2 merge time per pass = %v, want [0 5]", got)
	}
}

func near(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			return false
		}
	}
	return true
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step:
// the same workloads, and every metric with the same unit and direction.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if d.Moves == "" {
			t.Errorf("%s: no prediction of which end-to-end metric it moves", d.Name)
		}
	}
}

// TestChaosRun runs the chaos workload briefly in both modes: every
// check passes and every declared metric is reported.
func TestChaosRun(t *testing.T) {
	for _, traced := range []bool{false, true} {
		b := &bench{seed: 5, dir: t.TempDir()}
		res, err := b.run("chaos", traced, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v, %d of %d failed: %v", traced, res.Correct, res.Failed, res.Attempted, b.problems)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, name := range []string{"wall_s", "chaos.verified", "sweep.runcell_s"} {
			if m, ok := res.Metrics[name]; ok && m.Value <= 0 {
				t.Errorf("traced=%v: %s = %v, want > 0", traced, name, m.Value)
			}
		}
	}
}
