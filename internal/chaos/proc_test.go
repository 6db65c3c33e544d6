package chaos

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/backend/proc"
	"repro/internal/boolor"
	"repro/internal/bsp"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/workload"
)

// The proc backend re-execs this test binary as its worker processes;
// MaybeWorker hijacks those re-execs before the test runner starts.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	os.Exit(m.Run())
}

// TestChaosProcBackend is the proc-backend acceptance gate: the standard
// fault matrix (every mix × every model, parity) on real worker
// subprocesses. Injected crash verdicts SIGKILL a live worker; message
// verdicts drop or duplicate real frames. Every run must still satisfy
// the robustness invariant — verified XOR diagnosable, zero hangs — and
// mixes with no message-channel faults must reproduce the inproc event
// stream byte-identically (drop/dup realizations burn extra transport
// retry attempts, so their injector consult sequence legitimately
// differs from inproc).
func TestChaosProcBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	deadline := 30 * time.Second
	var verified, errored int
	for _, mx := range StandardMixes() {
		specs, err := fault.ParseSpecs(mx.Specs)
		if err != nil {
			t.Fatal(err)
		}
		channelFaults := strings.Contains(mx.Specs, "drop") || strings.Contains(mx.Specs, "dup")
		for _, model := range Models {
			degraded := mx.Degraded && model != "bsp" && model != "gsm"
			sc := Scenario{
				Model: model, Alg: "parity", N: 32, Seed: 3,
				Specs: specs, Degraded: degraded,
				Backend: "proc", ProcWorkers: 2,
			}
			t.Run(sc.Name(), func(t *testing.T) {
				o := Run(nil, sc, deadline, 0)
				if err := o.Invariant(); err != nil {
					t.Fatal(err)
				}
				if o.Cancelled {
					t.Fatal("run cancelled without a cancel signal")
				}
				if o.Verified {
					verified++
				} else {
					errored++
				}
				if channelFaults {
					return
				}
				ref := sc
				ref.Backend, ref.ProcWorkers = "", 0
				ri := Run(nil, ref, deadline, 0)
				if err := ri.Invariant(); err != nil {
					t.Fatal(err)
				}
				if o.Stream != ri.Stream {
					t.Fatalf("event stream diverges from inproc:\nproc:\n%s\ninproc:\n%s", o.Stream, ri.Stream)
				}
				if got, want := strings.Join(o.FaultLines, "\n"), strings.Join(ri.FaultLines, "\n"); got != want {
					t.Fatalf("fault schedule diverges from inproc:\nproc:\n%s\ninproc:\n%s", got, want)
				}
				if o.Verified != ri.Verified {
					t.Fatalf("verdict diverges from inproc: proc verified=%t, inproc verified=%t", o.Verified, ri.Verified)
				}
			})
		}
	}
	if verified == 0 || errored == 0 {
		t.Fatalf("degenerate proc sweep: %d verified, %d errored — the matrix should exercise both paths", verified, errored)
	}
}

// TestChaosProcBackendFinalState runs the message-channel mixes on BSP
// over real worker subprocesses and compares each run's final state with
// the inproc run of the same scenario: the answer and every component's
// private memory. The event streams legitimately differ — a realized
// drop or dup costs extra transport-retry attempts — but the machine a
// run ends in must not: a retry that skipped its rollback would leave
// the aborted attempt's private-memory mutations behind.
func TestChaosProcBackendFinalState(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	transport := 0
	for _, mx := range StandardMixes() {
		if !strings.Contains(mx.Specs, "drop") && !strings.Contains(mx.Specs, "dup") {
			continue
		}
		specs, err := fault.ParseSpecs(mx.Specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range AlgsFor("bsp") {
			for seed := int64(1); seed <= 3; seed++ {
				sc := Scenario{Model: "bsp", Alg: alg, N: 32, Seed: seed, Specs: specs,
					Backend: "proc", ProcWorkers: 2}
				t.Run(sc.Name(), func(t *testing.T) {
					bk, err := newBackend(sc)
					if err != nil {
						t.Fatal(err)
					}
					defer bk.Close()
					got := runBSPState(t, sc, bk)
					want := runBSPState(t, sc, nil)
					if got.err != nil || want.err != nil {
						t.Fatalf("proc err = %v, inproc err = %v", got.err, want.err)
					}
					if got.answer != want.answer {
						t.Fatalf("answer %d, inproc %d", got.answer, want.answer)
					}
					if !reflect.DeepEqual(got.priv, want.priv) {
						t.Fatalf("private memory diverges from inproc:\nproc:   %v\ninproc: %v", got.priv, want.priv)
					}
					transport += got.transport
				})
			}
		}
	}
	if transport == 0 {
		t.Fatal("no proc run recovered a transport fault: the comparison never covered a transport retry")
	}
}

// bspState is what a BSP run ends in.
type bspState struct {
	err       error
	answer    int64
	priv      [][]int64
	transport int
}

// finalStateRetries is the retry budget of the final-state runs. The
// default three attempts can run out on proc alone, where a realized
// drop costs attempts an inproc run never makes; with this budget both
// runs complete and their states can be compared.
const finalStateRetries = 8

// runBSPState runs sc's BSP algorithm under its fault plan as runBSP
// does, with finalStateRetries attempts per superstep, on backend bk
// (nil: inproc), and returns the final state.
func runBSPState(t *testing.T, sc Scenario, bk engine.Backend) bspState {
	t.Helper()
	bits := workload.Bits(sc.Seed, sc.N)
	run, priv := parity.RunBSP, parity.PrivNeedBSP(sc.N, bspComponents)
	if sc.Alg == "or" {
		run, priv = boolor.RunBSP, boolor.PrivNeedBSP(sc.N, bspComponents)
	}
	m := bsp.MustNew(bsp.Config{P: bspComponents, G: 2, L: 8, N: sc.N, PrivCells: priv})
	if bk != nil {
		m.SetBackend(bk)
	}
	m.InjectFaults(fault.NewPlan(sc.Seed, sc.Specs...), engine.RetryPolicy{MaxAttempts: finalStateRetries}, false)
	if err := m.Scatter(bits); err != nil {
		t.Fatal(err)
	}
	var st bspState
	st.answer, st.err = run(m, sc.N, 4)
	for i := 0; i < bspComponents; i++ {
		row := make([]int64, priv)
		for a := range row {
			row[a] = m.Peek(i, a)
		}
		st.priv = append(st.priv, row)
	}
	st.transport = m.FaultStats().Transport
	return st
}
