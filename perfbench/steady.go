package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// spec is the part of BENCHMARK.json the steadiness check reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// steadyMain runs every workload of BENCHMARK.json -runs times with seeds
// 1..runs and run_seconds each, each run a separate process exactly as
// the benchmark is invoked, and prints per end-to-end metric the median,
// the quartiles and the spread — the quartile distance as a share of the
// median — against the metric's bound. It fails when a run is incorrect
// or a spread exceeds its bound.
func steadyMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 2 {
		fmt.Fprintln(os.Stderr, "perfbench steady: -runs must be at least 2")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	seconds := strconv.Itoa(sp.RunSeconds)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}

	ok := true
	for _, wl := range sp.Workloads {
		name := wl.Name
		values := map[string][]float64{}
		for i := 1; i <= *runs; i++ {
			s := strconv.Itoa(i)
			res, err := runOnce(self, "--workload", name, "--seed", s, "--seconds", seconds, "--trace", "0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %s: %v\n", name, s, err)
				ok = false
				continue
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %s: wall_s %.4g\n", name, s, res.Metrics["wall_s"].Value)
		}
		fmt.Fprintf(stdout, "%s (%d runs, %ss each)\n", name, *runs, seconds)
		fmt.Fprintf(stdout, "  %-14s %-5s %12s %12s %12s %8s %7s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, m := range sp.EndToEnd {
			v := values[m.Name]
			if len(v) < 2 {
				fmt.Fprintf(stdout, "  %-14s too few runs\n", m.Name)
				ok = false
				continue
			}
			q := quantiles(v, 4)
			spread := (q[2] - q[0]) / q[1]
			verdict := "steady"
			switch {
			case spread > m.Bound:
				verdict = "WIDE"
				ok = false
			case spread > m.Bound/3:
				verdict = "within bound"
			}
			fmt.Fprintf(stdout, "  %-14s %-5s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%  %s\n",
				m.Name, m.Unit, q[1], q[0], q[2], 100*spread, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs one benchmark invocation and parses its result line.
func runOnce(self string, args ...string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err == nil {
			err = fmt.Errorf("no result line: %w", jerr)
		}
		return nil, err
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("incorrect run: %d of %d checks failed", res.Failed, res.Attempted)
	}
	return &res, err
}
