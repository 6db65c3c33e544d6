package sweep

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sweepBytes runs cells into fresh JSONL and CSV files and returns both.
func sweepBytes(t *testing.T, cells []Cell, opt Options) (jsonl, csv string) {
	t.Helper()
	dir := t.TempDir()
	opt.JSONL = filepath.Join(dir, "out.jsonl")
	opt.CSV = filepath.Join(dir, "out.csv")
	if _, err := Run(cells, opt); err != nil {
		t.Fatal(err)
	}
	return readFile(t, opt.JSONL), readFile(t, opt.CSV)
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPoolOutputMatchesSequential: the cell pool changes when cells run,
// never what is written — the smoke and chaos presets produce the same
// JSONL and CSV bytes at Workers 1 (sequential) and 4.
func TestPoolOutputMatchesSequential(t *testing.T) {
	presets := map[string][]Cell{
		"smoke": PresetSmoke(),
		"chaos": PresetChaos([]int64{1}, 32, false),
	}
	for name, cells := range presets {
		t.Run(name, func(t *testing.T) {
			j1, c1 := sweepBytes(t, cells, Options{Workers: 1})
			j4, c4 := sweepBytes(t, cells, Options{Workers: 4})
			if j1 != j4 {
				t.Error("JSONL differs between Workers 1 and 4")
			}
			if c1 != c4 {
				t.Error("CSV differs between Workers 1 and 4")
			}
			if n := strings.Count(j1, "\n"); n != len(cells) {
				t.Errorf("JSONL has %d records, want %d", n, len(cells))
			}
		})
	}
}

// TestPoolMaxCellsResume: a pooled sweep cut by MaxCells appends exactly
// MaxCells records in grid order, and resuming it — pooled again —
// yields the uninterrupted sequential output byte for byte.
func TestPoolMaxCellsResume(t *testing.T) {
	cells := PresetChaos([]int64{1}, 32, false)
	want, _ := sweepBytes(t, cells, Options{Workers: 1})

	part := filepath.Join(t.TempDir(), "part.jsonl")
	for i, cut := range []int{5, 17} {
		s, err := Run(cells, Options{JSONL: part, Workers: 4, MaxCells: cut, Resume: i > 0})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Interrupted || s.Ran != cut {
			t.Fatalf("cut %d: ran %d, interrupted %v", cut, s.Ran, s.Interrupted)
		}
		if got := readFile(t, part); !strings.HasPrefix(want, got) {
			t.Fatalf("cut %d: partial output is not a prefix of the full output", cut)
		}
	}
	s, err := Run(cells, Options{JSONL: part, Workers: 4, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Resumed != 5+17 || s.Interrupted {
		t.Fatalf("resume: resumed %d, interrupted %v; want 22 resumed", s.Resumed, s.Interrupted)
	}
	if got := readFile(t, part); got != want {
		t.Fatal("resumed pooled output differs from the uninterrupted sequential run")
	}
}

// cancelAfter cancels a context once the sweep has reported n records.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if len(p) > 0 && p[0] == '\r' {
		if c.n--; c.n == 0 {
			c.cancel()
		}
	}
	return len(p), nil
}

// TestPoolCancelLeavesResumablePrefix: cancelling a pooled sweep
// mid-run returns only after the cells in flight have finished, leaves a
// grid-order prefix on disk, and resumes to the uninterrupted output.
// No pool goroutine outlives Run.
func TestPoolCancelLeavesResumablePrefix(t *testing.T) {
	cells := PresetChaos([]int64{1, 2}, 32, false)
	want, _ := sweepBytes(t, cells, Options{Workers: 1})

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part := filepath.Join(t.TempDir(), "part.jsonl")
	s, err := Run(cells, Options{JSONL: part, Workers: 4, Ctx: ctx,
		Progress: &cancelAfter{n: 10, cancel: cancel}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Interrupted || s.Ran < 10 || s.Ran >= len(cells) {
		t.Fatalf("cancel: ran %d of %d, interrupted %v", s.Ran, len(cells), s.Interrupted)
	}
	got := readFile(t, part)
	if !strings.HasPrefix(want, got) || strings.Count(got, "\n") != s.Ran {
		t.Fatalf("cancelled output is not a %d-record prefix of the full output", s.Ran)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines alive after Run, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := Run(cells, Options{JSONL: part, Workers: 4, Resume: true}); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, part); got != want {
		t.Fatal("resumed output after cancel differs from the uninterrupted run")
	}
}
