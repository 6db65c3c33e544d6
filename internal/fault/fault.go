// Package fault provides deterministic, seed-driven fault plans for the
// machine engine. A Plan is a seeded RNG plus declarative fault specs
// (processor crash at phase k, transient memory errors with probability
// q, dropped/duplicated superstep messages, contention-rule violations,
// cost-budget exhaustion); it implements engine.Injector, so it attaches
// to any machine via InjectFaults and is consulted exactly once per phase
// attempt at the commit barrier.
//
// Determinism: the engine consults the injector from the coordinating
// goroutine in phase/attempt order, which is itself deterministic, so a
// Plan's draw sequence — and therefore the fault schedule, the recovery
// behavior and the full observer event stream — is a pure function of
// (seed, specs, machine, algorithm). Workers=1 and Workers=N runs of the
// same seed are byte-identical. A Plan is stateful (RNG position, shot
// counters, event log) and belongs to exactly one machine run; build a
// fresh Plan from the same seed to replay a schedule.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cost"
	"repro/internal/engine"
)

// Sentinel errors carried by injected faults. They are wrapped with %w at
// every layer (plan verdict, engine poisoning, facade), so errors.Is
// identifies the fault kind through a machine's Err chain.
var (
	// ErrCrash marks a processor/component crash fault.
	ErrCrash = errors.New("fault: processor crash")
	// ErrTransient marks a transient shared-memory read/write error.
	ErrTransient = errors.New("fault: transient memory error")
	// ErrMessage marks a dropped or duplicated superstep message.
	ErrMessage = errors.New("fault: message channel error")
	// ErrInjectedViolation marks an injected contention-rule violation.
	// Shared-memory machines additionally wrap their model's own
	// Violation sentinel, so both identities survive errors.Is.
	ErrInjectedViolation = errors.New("fault: injected contention-rule violation")
	// ErrBudget marks cost-budget exhaustion: the machine's accumulated
	// model time crossed the spec's ceiling.
	ErrBudget = errors.New("fault: cost budget exhausted")
)

// Kind enumerates the declarative fault kinds a Spec can request.
type Kind int

const (
	// Crash fails one processor permanently (masked in degraded mode,
	// poisoning otherwise).
	Crash Kind = iota
	// MemTransient is a transient memory read/write error: the phase
	// attempt is detected at the barrier, rolled back and retried. Fires
	// only on shared-memory machines.
	MemTransient
	// MsgDrop is a dropped superstep message (transient; rolled back and
	// retried). Fires only on message-routing machines.
	MsgDrop
	// MsgDup is a duplicated superstep message (transient). Fires only on
	// message-routing machines.
	MsgDup
	// Violation injects a contention-rule violation: the machine poisons
	// exactly as if the algorithm had broken the model's access rule.
	Violation
	// Budget poisons the machine when its accumulated model time exceeds
	// Spec.Budget.
	Budget
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case MemTransient:
		return "mem"
	case MsgDrop:
		return "drop"
	case MsgDup:
		return "dup"
	case Violation:
		return "violation"
	case Budget:
		return "budget"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec declares one fault source. A spec fires either at a pinned phase
// (Phase ≥ 0) or probabilistically per consult (Phase < 0, probability
// Prob); Budget specs fire when the machine's model time crosses Budget.
type Spec struct {
	// Kind selects the fault kind.
	Kind Kind
	// Phase pins the fault to one phase index; −1 selects probabilistic
	// firing via Prob. (Budget specs ignore both.)
	Phase int
	// Proc pins a Crash to one processor; −1 draws the victim from the
	// plan RNG at fire time.
	Proc int
	// Prob is the per-consult firing probability in [0,1] for Phase < 0.
	Prob float64
	// MaxShots bounds how often the spec fires; 0 means once for
	// phase-pinned/Budget specs and unlimited for probabilistic ones.
	MaxShots int
	// Budget is the model-time ceiling of a Budget spec.
	Budget cost.Time
}

func (s Spec) maxShots() int {
	if s.MaxShots > 0 {
		return s.MaxShots
	}
	if s.Phase < 0 && s.Kind != Budget {
		return int(^uint(0) >> 1) // unlimited
	}
	return 1
}

// String renders the spec in the parsim chaos syntax (see ParseSpec).
func (s Spec) String() string {
	switch {
	case s.Kind == Budget:
		return fmt.Sprintf("budget@%d", s.Budget)
	case s.Phase >= 0 && s.Kind == Crash && s.Proc >= 0:
		return fmt.Sprintf("crash@%d:p%d", s.Phase, s.Proc)
	case s.Phase >= 0:
		return fmt.Sprintf("%s@%d", s.Kind, s.Phase)
	default:
		return fmt.Sprintf("%s~%g", s.Kind, s.Prob)
	}
}

// Event records one injected fault, in consult order. The event log is
// part of the determinism contract: identical (seed, specs, machine,
// algorithm) produce identical logs at every Workers setting.
type Event struct {
	// Phase and Attempt locate the consult that fired.
	Phase, Attempt int
	// Kind is the firing spec's kind.
	Kind Kind
	// Proc is the crash victim (−1 for non-crash faults).
	Proc int
	// Addr is the fault's target: memory cell or inbox component (−1
	// when inapplicable).
	Addr int
	// Class is the engine-level effect of the fault.
	Class engine.FaultClass
}

// String renders the event as one deterministic log line.
func (e Event) String() string {
	return fmt.Sprintf("phase %d attempt %d: %s proc=%d addr=%d class=%s",
		e.Phase, e.Attempt, e.Kind, e.Proc, e.Addr, e.Class)
}

// Plan is a deterministic fault schedule: a seeded RNG plus specs,
// consulted by the engine once per phase attempt. It implements
// engine.Injector. A Plan is single-use — attach it to one machine run.
type Plan struct {
	seed  int64
	rng   *rand.Rand
	specs []Spec
	shots []int
	log   []Event
}

// NewPlan builds a plan from a seed and fault specs. Specs are evaluated
// in declaration order at each consult; the first spec that fires decides
// the attempt's verdict.
func NewPlan(seed int64, specs ...Spec) *Plan {
	return &Plan{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		specs: append([]Spec(nil), specs...),
		shots: make([]int, len(specs)),
	}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// Events returns the injected faults in consult order.
func (p *Plan) Events() []Event { return p.log }

// EventLines renders the event log one line per fault — the chaos
// harness compares these byte-for-byte across Workers settings.
func (p *Plan) EventLines() []string {
	lines := make([]string, len(p.log))
	for i, e := range p.log {
		lines[i] = e.String()
	}
	return lines
}

// Inject implements engine.Injector: evaluate specs in order against the
// consult context, fire the first match, log it, and translate it to the
// engine verdict.
func (p *Plan) Inject(ic engine.InjectCtx) engine.Verdict {
	for i, s := range p.specs {
		if p.shots[i] >= s.maxShots() || !p.applies(s, ic) {
			continue
		}
		if !p.fires(s, ic) {
			continue
		}
		p.shots[i]++
		v := p.verdict(s, ic)
		p.log = append(p.log, Event{
			Phase:   ic.Phase,
			Attempt: ic.Attempt,
			Kind:    s.Kind,
			Proc:    v.Proc,
			Addr:    v.Addr,
			Class:   v.Class,
		})
		return v
	}
	return engine.Verdict{}
}

// applies reports whether the spec's kind is meaningful for the consulted
// machine family: memory faults need cells, message faults need none.
func (p *Plan) applies(s Spec, ic engine.InjectCtx) bool {
	switch s.Kind {
	case MemTransient, Violation:
		return ic.Cells > 0
	case MsgDrop, MsgDup:
		return ic.Cells == 0
	default:
		return true
	}
}

// fires decides whether the spec triggers at this consult. Probabilistic
// specs consume exactly one RNG draw per eligible consult, so the draw
// sequence is a pure function of the consult sequence.
func (p *Plan) fires(s Spec, ic engine.InjectCtx) bool {
	if s.Kind == Budget {
		return ic.Total > s.Budget
	}
	if s.Phase >= 0 {
		return ic.Phase == s.Phase && ic.Attempt == 1
	}
	return p.rng.Float64() < s.Prob
}

// verdict translates a firing spec into the engine's fault verdict,
// drawing victims and fault targets from the plan RNG.
func (p *Plan) verdict(s Spec, ic engine.InjectCtx) engine.Verdict {
	switch s.Kind {
	case Crash:
		proc := s.Proc
		if proc < 0 {
			proc = p.rng.Intn(max(ic.P, 1))
		}
		return engine.Verdict{
			Class: engine.FaultCrash,
			Err:   fmt.Errorf("%w: proc %d at phase %d", ErrCrash, proc, ic.Phase),
			Proc:  proc,
			Addr:  -1,
		}
	case MemTransient:
		addr := p.rng.Intn(max(ic.Cells, 1))
		return engine.Verdict{
			Class: engine.FaultTransient,
			Err:   fmt.Errorf("%w: cell %d at phase %d", ErrTransient, addr, ic.Phase),
			Proc:  -1,
			Addr:  addr,
		}
	case MsgDrop, MsgDup:
		comp := p.rng.Intn(max(ic.P, 1))
		flavor := "duplicated"
		if s.Kind == MsgDrop {
			flavor = "dropped"
		}
		return engine.Verdict{
			Class: engine.FaultTransient,
			Err: fmt.Errorf("%w: %s delivery to component %d at superstep %d",
				ErrMessage, flavor, comp, ic.Phase),
			Proc: -1,
			Addr: comp,
			Drop: s.Kind == MsgDrop,
		}
	case Violation:
		return engine.Verdict{
			Class:     engine.FaultPermanent,
			Err:       fmt.Errorf("%w at phase %d", ErrInjectedViolation, ic.Phase),
			Proc:      -1,
			Addr:      -1,
			Violation: true,
		}
	case Budget:
		return engine.Verdict{
			Class: engine.FaultPermanent,
			Err: fmt.Errorf("%w: model time %d exceeds budget %d at phase %d",
				ErrBudget, ic.Total, s.Budget, ic.Phase),
			Proc: -1,
			Addr: -1,
		}
	default:
		return engine.Verdict{}
	}
}

// Report summarises a faulted run: the plan's injected events plus the
// engine's recovery accounting.
type Report struct {
	// Seed is the plan seed that reproduces the schedule.
	Seed int64
	// Injected counts faults fired by the plan.
	Injected int
	// Transient, Crashes and Permanent split Injected by effect.
	Transient, Crashes, Permanent int
	// Recovered counts phases that committed after a transient abort;
	// Retries counts recovery stalls charged.
	Recovered, Retries int
	// MaskedProcs counts processors masked in degraded mode.
	MaskedProcs int
	// RecoveryCost is the model time charged to recovery stalls.
	RecoveryCost cost.Time
	// Events is the full injection log in consult order.
	Events []Event
}

// Report assembles the run summary from the plan's event log and the
// machine's engine-side fault accounting.
func (p *Plan) Report(m engine.Machine) *Report {
	fs := m.FaultStats()
	r := &Report{
		Seed:         p.seed,
		Injected:     fs.Injected,
		Recovered:    fs.Recovered,
		Retries:      fs.Retries,
		MaskedProcs:  fs.MaskedProcs,
		RecoveryCost: fs.RecoveryCost,
		Events:       p.log,
	}
	for _, e := range p.log {
		switch e.Class {
		case engine.FaultTransient:
			r.Transient++
		case engine.FaultCrash:
			r.Crashes++
		case engine.FaultPermanent:
			r.Permanent++
		}
	}
	return r
}

// String renders a one-line summary followed by the event log.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"fault[seed=%d]: injected=%d (transient=%d crash=%d permanent=%d) recovered=%d retries=%d masked=%d recoveryCost=%d",
		r.Seed, r.Injected, r.Transient, r.Crashes, r.Permanent,
		r.Recovered, r.Retries, r.MaskedProcs, r.RecoveryCost)
	for _, e := range r.Events {
		b.WriteString("\n  ")
		b.WriteString(e.String())
	}
	return b.String()
}
