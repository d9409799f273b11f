package core

import (
	"errors"
	"fmt"

	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/sched"
)

// Result-validation errors. ErrOffCurve and ErrDegenerate come from the
// cheap structural checks (no recompute); ErrOracleMismatch from the
// full functional-model recompute. All three mean the datapath produced
// a wrong word — callers (internal/engine) treat them as detected
// faults and retry or degrade rather than deliver the point.
var (
	// ErrOffCurve: the decoded result does not satisfy the curve
	// equation. A random register upset almost never lands back on the
	// curve, so this single check catches the bulk of silent datapath
	// corruption at the cost of a few field multiplications.
	ErrOffCurve = errors.New("core: result validation: point not on curve")
	// ErrDegenerate: the result decoded to the all-zero word, the
	// affine image of a Z=0 projective point (the final inversion of a
	// zeroed denominator). (0,0) is not on the curve, but the distinct
	// error preserves the root cause.
	ErrDegenerate = errors.New("core: result validation: degenerate zero point (Z=0 image)")
	// ErrOracleMismatch: the RTL result differs from the pure
	// functional curve model.
	ErrOracleMismatch = errors.New("core: RTL result differs from functional oracle")
)

// Validate selects the end-of-scalar-multiplication result checks. The
// zero value is ValidateOnCurve: cheap structural validation is the
// default, opting *out* of self-checking is explicit.
type Validate uint8

const (
	// ValidateOnCurve runs the cheap structural checks: the decoded
	// point is non-degenerate and on the curve. No recompute; cost is a
	// handful of field multiplications against thousands of modeled
	// cycles per run.
	ValidateOnCurve Validate = iota
	// ValidateNone delivers the raw datapath output unchecked.
	ValidateNone
	// ValidateOracle adds a full functional-model recompute (the
	// differential oracle). Roughly doubles the cost of a run; catches
	// even corruption that lands on a valid curve point.
	ValidateOracle
)

// String names the validation level (used in reports and logs).
func (v Validate) String() string {
	switch v {
	case ValidateOnCurve:
		return "oncurve"
	case ValidateNone:
		return "none"
	case ValidateOracle:
		return "oracle"
	}
	return fmt.Sprintf("validate(%d)", uint8(v))
}

// ValidateAffine runs the cheap structural result checks on a decoded
// scalar-multiplication output: the hardware analog is an end-of-SM
// self-test that needs no second scalar multiplication.
func ValidateAffine(a curve.Affine) error {
	if a.X.IsZero() && a.Y.IsZero() {
		return ErrDegenerate
	}
	if !a.IsOnCurveAffine() {
		return ErrOffCurve
	}
	return nil
}

// DefaultTraceScalar is the scalar used to seed trace recording when
// Config.TraceScalar is zero: any fixed scalar with all four sub-scalars
// active (the program is scalar-independent, a fixed default keeps
// builds deterministic).
func DefaultTraceScalar() scalar.Scalar {
	return scalar.Scalar{
		0x243F6A8885A308D3, 0x13198A2E03707344,
		0xA4093822299F31D0, 0x082EFA98EC4E6C89,
	}
}

// ConfigKey is the comparable identity of a Config: two Configs with the
// same key build byte-identical processors, so caches (internal/engine)
// can share one built instance between them. Incidental fields that do
// not influence the built program — the telemetry recorder and the
// scheduler progress callback — are deliberately excluded.
type ConfigKey struct {
	Resources   sched.Resources
	Method      sched.Method
	AnnealIters int
	BnBBudget   int64
	BlockSize   int
	SchedSeed   int64
	// Portfolio is comparable by construction (plain integer knobs); it
	// only differentiates keys when Method is MethodPortfolio, but
	// including it unconditionally is harmless (zero elsewhere).
	Portfolio   sched.PortfolioKnobs
	Elide       bool
	TraceScalar scalar.Scalar
	// FixedBase distinguishes processors that additionally carry the
	// fixed-base comb program.
	FixedBase bool
}

// CacheKey derives the comparable cache identity of c, normalizing the
// defaulted fields so that Config{} and an explicitly spelled-out
// default configuration map to the same key.
func (c Config) CacheKey() ConfigKey {
	res := c.Resources
	if res == (sched.Resources{}) {
		res = sched.DefaultResources()
	}
	ts := c.TraceScalar
	if ts.IsZero() {
		ts = DefaultTraceScalar()
	}
	return ConfigKey{
		Resources:   res,
		Method:      c.Sched.Method,
		AnnealIters: c.Sched.AnnealIters,
		BnBBudget:   c.Sched.BnBBudget,
		BlockSize:   c.Sched.BlockSize,
		SchedSeed:   c.Sched.Seed,
		Portfolio:   c.Sched.Portfolio,
		Elide:       c.Sched.ElideWritebacks,
		TraceScalar: ts,
		FixedBase:   c.FixedBase,
	}
}

// Executor is a per-worker handle for running scalar multiplications on
// a shared Processor. The processor's compiled program is immutable
// after New and each Executor owns a dedicated rtl.Machine (register
// file, pipeline value slots) plus a fixed input-binding buffer, so any
// number of Executors may run concurrently over one Processor without
// locking the datapath model, and a steady-state ScalarMult on the
// fast path (no injector) performs zero heap allocations. Each worker
// of a pool owns exactly one Executor and its (unsynchronized)
// aggregate run statistics. An Executor is not safe for concurrent use.
type Executor struct {
	p      *Processor
	m      *rtl.Machine
	bound  [2]rtl.Binding
	inj    rtl.Injector
	runs   int
	cycles int64
	// fbm is the lazily-built machine for the fixed-base comb program
	// (only when the processor carries one).
	fbm *rtl.Machine
	// ls is the lazily-grown lockstep lane state (ScalarMultLanes).
	ls *laneState
	// fbls is the lockstep lane state of the fixed-base program.
	fbls *laneState
}

// NewExecutor returns an independent executor over p with its own
// reusable datapath machine.
func (p *Processor) NewExecutor() *Executor {
	e := &Executor{p: p, m: p.funcCompiled.NewMachine()}
	e.bound[0].Reg = p.funcIn[0]
	e.bound[1].Reg = p.funcIn[1]
	return e
}

// SetInjector attaches a datapath fault injector to every subsequent
// run of this executor (nil detaches). The injector is confined to this
// executor's goroutine; the shared processor is never mutated.
func (e *Executor) SetInjector(inj rtl.Injector) { e.inj = inj }

// Runs returns the number of scalar multiplications this executor has
// completed successfully.
func (e *Executor) Runs() int { return e.runs }

// Cycles returns the total modeled datapath cycles this executor has
// executed.
func (e *Executor) Cycles() int64 { return e.cycles }

// ScalarMult executes [k]G bit-true on the RTL model.
func (e *Executor) ScalarMult(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	return e.ScalarMultPoint(k, curve.GeneratorAffine())
}

// ScalarMultPoint executes [k]P on the RTL model, reusing this
// executor's machine. With no injector attached this is a one-lane run
// of the lockstep path (the same loop and row kernel as
// ScalarMultLanes) and allocates nothing; note the returned Stats then
// carry the program's shared read-only IssuesByOpcode map.
func (e *Executor) ScalarMultPoint(k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	dec := scalar.Decompose(k)
	e.bound[0].Val = base.X
	e.bound[1].Val = base.Y
	st, err := e.m.Run(rtl.RunInput{
		Bound:     e.bound[:],
		Rec:       scalar.Recode(dec),
		Corrected: dec.Corrected,
		Injector:  e.inj,
	})
	if err != nil {
		return curve.Affine{}, st, err
	}
	e.runs++
	e.cycles += int64(st.Cycles)
	return curve.Affine{X: e.m.Reg(e.p.funcOut[0]), Y: e.m.Reg(e.p.funcOut[1])}, st, nil
}

// ScalarMultValidated executes [k]P on the RTL model and applies the
// selected end-of-SM result checks. Validation failures come back as
// wrapped ErrOffCurve / ErrDegenerate / ErrOracleMismatch errors (with
// the raw point still returned for diagnosis); a structural hazard in
// the run itself is returned unchanged.
func (e *Executor) ScalarMultValidated(k scalar.Scalar, base curve.Affine, v Validate) (curve.Affine, rtl.Stats, error) {
	out, st, err := e.ScalarMultPoint(k, base)
	if err != nil || v == ValidateNone {
		return out, st, err
	}
	if err := ValidateAffine(out); err != nil {
		return out, st, fmt.Errorf("%w (k=%v)", err, k)
	}
	if v == ValidateOracle {
		want := curve.ScalarMult(k, curve.FromAffine(base)).Affine()
		if !out.X.Equal(want.X) || !out.Y.Equal(want.Y) {
			return out, st, fmt.Errorf("%w (k=%v)", ErrOracleMismatch, k)
		}
	}
	return out, st, nil
}

// HasFixedBase reports whether this executor's processor carries the
// fixed-base comb program (so ScalarMultFixedBase rides it instead of
// falling back to the variable-base program).
func (e *Executor) HasFixedBase() bool { return e.p.fbCompiled != nil }

// ScalarMultFixedBase executes [k]G on the fixed-base comb program,
// reusing this executor's dedicated fixed-base machine. When the
// processor was built without Config.FixedBase it degrades gracefully
// to the variable-base program — same result, longer schedule.
func (e *Executor) ScalarMultFixedBase(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	if e.p.fbCompiled == nil {
		return e.ScalarMult(k)
	}
	if e.fbm == nil {
		e.fbm = e.p.fbCompiled.NewMachine()
	}
	rec, corrected := scalar.RecodeFixedBase(k)
	st, err := e.fbm.Run(rtl.RunInput{Rec: rec, Corrected: corrected, Injector: e.inj})
	if err != nil {
		return curve.Affine{}, st, err
	}
	e.runs++
	e.cycles += int64(st.Cycles)
	return curve.Affine{X: e.fbm.Reg(e.p.fbOut[0]), Y: e.fbm.Reg(e.p.fbOut[1])}, st, nil
}

// ScalarMultFixedBaseValidated is ScalarMultFixedBase plus the selected
// end-of-SM result checks, mirroring ScalarMultValidated (the oracle is
// the functional library's [k]G).
func (e *Executor) ScalarMultFixedBaseValidated(k scalar.Scalar, v Validate) (curve.Affine, rtl.Stats, error) {
	out, st, err := e.ScalarMultFixedBase(k)
	if err != nil || v == ValidateNone {
		return out, st, err
	}
	if err := ValidateAffine(out); err != nil {
		return out, st, fmt.Errorf("%w (k=%v)", err, k)
	}
	if v == ValidateOracle {
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		if !out.X.Equal(want.X) || !out.Y.Equal(want.Y) {
			return out, st, fmt.Errorf("%w (k=%v)", ErrOracleMismatch, k)
		}
	}
	return out, st, nil
}

// ScalarMultChecked executes [k]P on the RTL model and cross-checks the
// result against the pure functional curve model (the differential
// oracle): a datapath divergence is returned as an error (wrapping
// ErrOracleMismatch or the structural checks' sentinels), never as a
// wrong point.
func (e *Executor) ScalarMultChecked(k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	return e.ScalarMultValidated(k, base, ValidateOracle)
}
