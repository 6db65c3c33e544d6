// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time, checks every output, and
// prints the end-to-end metrics — or, with --trace 1, the per-layer
// ledger — as a JSON object on the last line of standard output:
//
//	perfbench --workload tables|proc|chaos --seed N --seconds S --trace 0|1
//	perfbench steady [-runs 10]
//
// Run it through run.sh from the repository root, which builds it first.
// The steady subcommand repeats every workload of BENCHMARK.json with
// seeds 1..runs for run_seconds each and prints each end-to-end metric's median and quartiles against the bound
// in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/backend/proc"
)

// workDir holds sweep outputs and span files, relative to the repository
// root the benchmark runs from.
const workDir = ".bench_build/perfbench/work"

// goldenPath is the committed seed-1998 Table 1 rendering.
const goldenPath = "cmd/tables/testdata/tables_seed1998.golden"

// engineWorkers is the engine's Workers on chaos and proc; the load is
// always one process. On a 2-core machine a second engine thread made
// chaos 20% slower and far more sensitive to time the host takes from
// either core, and proc's worker processes need the other core. tables
// runs with the defaults cmd/tables uses.
const engineWorkers = 1

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"tables", "proc", "chaos"}

func newWorkload(name string, b *bench, traced bool) (workload, error) {
	switch name {
	case "tables":
		return &tablesBench{b: b, traced: traced}, nil
	case "proc":
		return &procBench{b: b}, nil
	case "chaos":
		return &chaosBench{b: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tables | proc | chaos)", name)
}

func main() {
	// The proc backend re-executes this binary as its worker processes.
	proc.MaybeWorker()
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tables | proc | chaos")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	b := &bench{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		dir:    workDir,
		golden: goldenPath,
	}
	res, err := b.run(*name, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// run measures one workload and prints the human-readable report; the
// caller prints the result line.
func (b *bench) run(name string, traced bool, stdout io.Writer) (*result, error) {
	w, err := newWorkload(name, b, traced)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	res := &result{}
	if traced {
		tr := newTracer()
		l, err := b.perLayer(w, tr)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(b.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, b.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.Metrics = l.emit(perLayer)
		report(stdout, perLayer, l)
		fmt.Fprintf(stdout, "%-28s %d spans in %s\n", "spans", len(tr.spans), path)
	} else {
		l, ss, err := b.endToEnd(w)
		if err != nil {
			return nil, err
		}
		res.Metrics = l.emit(endToEnd)
		report(stdout, endToEnd, l)
		cells := 0
		for _, s := range ss {
			cells += len(s.cells)
		}
		fmt.Fprintf(stdout, "%-28s %d cells over %d passes\n", "samples", cells, len(ss))
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && b.attempted > 0
	ratio := 0.0
	if b.attempted > 0 {
		ratio = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(stdout, "%-28s %g ratio (%d of %d checks failed)\n", "fail_ratio", ratio, b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	return res, nil
}

// report prints one line per metric: name, value, unit.
func report(w io.Writer, defs []metricDef, l ledger) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %.6g %s\n", d.Name, l[d.Name], d.Unit)
	}
}
