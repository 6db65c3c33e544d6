package sweep

import (
	"testing"

	"repro/internal/qsm"
)

// benchGateEntries are the snapshot names the CI bench gate
// (`parsim sweep -bench -bench-baseline BENCH_pr7.json`) diffs; the
// guard below fails fast if a refactor renames or drops one, which
// would otherwise silently shrink the gate (CompareBenchSnapshots only
// reports baseline entries missing from the *current* run, not the
// other way around).
var benchGateEntries = []string{
	"Sweep/exp/T1.Parity.det/n=2048",
	"Sweep/exp/T2.Parity.det/n=4096",
	"Sweep/exp/T3.Parity.det/n=4096",
	"Sweep/exp/T4.LAC.qsm/n=4096",
	"Sweep/commit/qsm-low",
	"Sweep/commit/qsm-high",
	"Sweep/commit/qsm-tree8",
	"Sweep/commit/qsm-batch",
	"Sweep/commit/bsp-shift",
	"Sweep/commit/gsm-gather",
	"Sweep/cell/qsm-parity",
}

// TestBenchBaselineGateEntries guards the committed BENCH_pr7.json
// without paying for a timed benchmark run: every gate entry must be
// present, and the deterministic modelTime of the PR 7 columnar entry
// (qsm-batch) is re-derived from a single probe phase and compared
// exactly. Hot-path edits forced by the lint sweep
// can change allocation behavior without failing any functional test;
// this pins the model-side half of the gate so such edits cannot
// silently drift the priced execution, and CI's full bench-gate step
// still covers ns/op and allocs/op.
func TestBenchBaselineGateEntries(t *testing.T) {
	base, err := ReadBenchSnapshot("../../BENCH_pr7.json")
	if err != nil {
		t.Fatalf("read committed snapshot: %v", err)
	}
	byName := make(map[string]BenchResult, len(base.Benches))
	for _, b := range base.Benches {
		byName[b.Name] = b
	}
	for _, name := range benchGateEntries {
		if _, ok := byName[name]; !ok {
			t.Errorf("gate entry %s missing from BENCH_pr7.json", name)
		}
	}
	if len(base.Benches) != len(benchGateEntries) {
		t.Errorf("BENCH_pr7.json has %d entries, guard expects %d: update benchGateEntries with the snapshot",
			len(base.Benches), len(benchGateEntries))
	}

	// The comparator must accept a snapshot against itself; anything else
	// means the gate would flag noise-free reruns.
	if regs := CompareBenchSnapshots(base, base, 0, 0); len(regs) != 0 {
		t.Errorf("self-comparison reports regressions: %v", regs)
	}

	// qsm-batch: one columnar block-submission phase, same shape and
	// sizes as benchQSMBatch's probe.
	const p, k = benchCommitProcs, 16
	batch, err := qsmCommitMachine(p, 2*p*k)
	if err != nil {
		t.Fatalf("qsm-batch machine: %v", err)
	}
	batch.Phase(func(c *qsm.Ctx) {
		pr := c.Proc()
		c.ReadBlock(pr*k, k)
		c.WriteFill(p*k+pr*k, k, int64(pr))
	})
	if batch.Err() != nil {
		t.Fatalf("qsm-batch phase: %v", batch.Err())
	}
	checkModelTime(t, byName, "Sweep/commit/qsm-batch", float64(batch.Report().TotalTime))
}

func checkModelTime(t *testing.T, byName map[string]BenchResult, name string, got float64) {
	t.Helper()
	b, ok := byName[name]
	if !ok {
		return // already reported above
	}
	want, ok := b.Metrics["modelTime"]
	if !ok {
		t.Errorf("%s: snapshot entry has no modelTime metric", name)
		return
	}
	if got != want {
		t.Errorf("%s: deterministic modelTime drifted: snapshot %g, current %g", name, want, got)
	}
}
