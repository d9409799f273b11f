package core

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/scalar"
)

// laneState is the executor's pooled lockstep state: the lane machine
// plus pre-bound per-lane input slots, grown once to the widest batch
// this executor has seen and reused for every run after that (the
// steady-state lane path performs zero heap allocations, like the
// single-lane fast path).
type laneState struct {
	lm *rtl.LaneMachine
	// bound[l] is lane l's fixed (base.X, base.Y) binding pair; the
	// RunInput Bound slices point into it and stay valid until the next
	// growth.
	bound [][2]rtl.Binding
	ins   []rtl.RunInput
}

// lanes returns the executor's lockstep state, growing it to hold at
// least n lanes. Growth reallocates the machine (a width change moves
// every structure-of-arrays row), so it only ever widens.
func (e *Executor) lanes(n int) *laneState {
	ls := e.ls
	if ls == nil {
		ls = &laneState{}
		e.ls = ls
	}
	if ls.lm == nil || ls.lm.Width() < n {
		ls.lm = e.p.funcCompiled.NewLaneMachine(n)
		ls.bound = make([][2]rtl.Binding, n)
		ls.ins = make([]rtl.RunInput, n)
		for l := 0; l < n; l++ {
			ls.bound[l][0].Reg = e.p.funcIn[0]
			ls.bound[l][1].Reg = e.p.funcIn[1]
			ls.ins[l].Bound = ls.bound[l][:]
		}
	}
	return ls
}

// ScalarMultLanes executes [ks[l]]bases[l] for every lane l in one
// lockstep pass of the compiled schedule (see rtl.LaneMachine). outs
// and errs are per-lane: errs[l] is exactly the error a single-lane
// ScalarMultPoint would have returned for that input (nil on success),
// and outs[l] is valid iff errs[l] is nil — a failing lane degrades
// only itself. The returned rtl.Stats are the schedule's (identical
// for every lane, data-independent); the whole-batch error is reserved
// for caller mistakes (mismatched slice lengths, no lanes).
//
// With an injector attached the lockstep path is bypassed: each lane
// runs through ScalarMultPoint, whose injected runs take the reference
// interpreter, so faults land in exactly one lane, preserving the
// per-lane error contract.
func (e *Executor) ScalarMultLanes(ks []scalar.Scalar, bases []curve.Affine, outs []curve.Affine, errs []error) (rtl.Stats, error) {
	n := len(ks)
	if n == 0 {
		return rtl.Stats{}, fmt.Errorf("core: lane run with no scalars")
	}
	if len(bases) != n || len(outs) != n || len(errs) != n {
		return rtl.Stats{}, fmt.Errorf("core: lane slice lengths diverge: %d scalars, %d bases, %d outs, %d errs",
			n, len(bases), len(outs), len(errs))
	}
	if e.inj != nil {
		for l := 0; l < n; l++ {
			outs[l], _, errs[l] = e.ScalarMultPoint(ks[l], bases[l])
		}
		return e.p.funcCompiled.Stats(), nil
	}
	ls := e.lanes(n)
	for l := 0; l < n; l++ {
		dec := scalar.Decompose(ks[l])
		ls.bound[l][0].Val = bases[l].X
		ls.bound[l][1].Val = bases[l].Y
		ls.ins[l].Rec = scalar.Recode(dec)
		ls.ins[l].Corrected = dec.Corrected
	}
	st, err := ls.lm.RunLanes(ls.ins[:n], errs)
	if err != nil {
		return st, err
	}
	for l := 0; l < n; l++ {
		if errs[l] != nil {
			continue
		}
		outs[l] = curve.Affine{
			X: ls.lm.Reg(l, e.p.funcOut[0]),
			Y: ls.lm.Reg(l, e.p.funcOut[1]),
		}
		e.runs++
		e.cycles += int64(st.Cycles)
	}
	return st, nil
}

// fbLanes returns the executor's fixed-base lockstep state, growing it
// to hold at least n lanes (the fixed-base program has no external
// inputs, so the lanes carry only the recoded scalars).
func (e *Executor) fbLanes(n int) *laneState {
	ls := e.fbls
	if ls == nil {
		ls = &laneState{}
		e.fbls = ls
	}
	if ls.lm == nil || ls.lm.Width() < n {
		ls.lm = e.p.fbCompiled.NewLaneMachine(n)
		ls.ins = make([]rtl.RunInput, n)
	}
	return ls
}

// ScalarMultFixedBaseLanes executes [ks[l]]G for every lane l in one
// lockstep pass of the fixed-base comb schedule, with the same per-lane
// error contract as ScalarMultLanes. Without the fixed-base program (or
// with an injector attached) each lane runs through the single-lane
// fixed-base path instead.
func (e *Executor) ScalarMultFixedBaseLanes(ks []scalar.Scalar, outs []curve.Affine, errs []error) (rtl.Stats, error) {
	n := len(ks)
	if n == 0 {
		return rtl.Stats{}, fmt.Errorf("core: lane run with no scalars")
	}
	if len(outs) != n || len(errs) != n {
		return rtl.Stats{}, fmt.Errorf("core: lane slice lengths diverge: %d scalars, %d outs, %d errs",
			n, len(outs), len(errs))
	}
	if e.p.fbCompiled == nil || e.inj != nil {
		for l := 0; l < n; l++ {
			outs[l], _, errs[l] = e.ScalarMultFixedBase(ks[l])
		}
		// The program's stats, not a lane's: a faulted lane returns
		// Stats{}, which must not stamp zero cycles on its lane-mates.
		if e.p.fbCompiled == nil {
			return e.p.funcCompiled.Stats(), nil
		}
		return e.p.fbCompiled.Stats(), nil
	}
	ls := e.fbLanes(n)
	for l := 0; l < n; l++ {
		ls.ins[l].Rec, ls.ins[l].Corrected = scalar.RecodeFixedBase(ks[l])
	}
	st, err := ls.lm.RunLanes(ls.ins[:n], errs)
	if err != nil {
		return st, err
	}
	for l := 0; l < n; l++ {
		if errs[l] != nil {
			continue
		}
		outs[l] = curve.Affine{
			X: ls.lm.Reg(l, e.p.fbOut[0]),
			Y: ls.lm.Reg(l, e.p.fbOut[1]),
		}
		e.runs++
		e.cycles += int64(st.Cycles)
	}
	return st, nil
}

// ScalarMultFixedBaseLanesValidated is ScalarMultFixedBaseLanes plus
// the per-lane end-of-SM result checks (oracle: the library's [k]G).
func (e *Executor) ScalarMultFixedBaseLanesValidated(ks []scalar.Scalar, outs []curve.Affine, errs []error, v Validate) (rtl.Stats, error) {
	st, err := e.ScalarMultFixedBaseLanes(ks, outs, errs)
	if err != nil || v == ValidateNone {
		return st, err
	}
	for l := range ks {
		if errs[l] != nil {
			continue
		}
		if verr := ValidateAffine(outs[l]); verr != nil {
			errs[l] = fmt.Errorf("%w (k=%v)", verr, ks[l])
			continue
		}
		if v == ValidateOracle {
			want := curve.ScalarMult(ks[l], curve.Generator()).Affine()
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				errs[l] = fmt.Errorf("%w (k=%v)", ErrOracleMismatch, ks[l])
			}
		}
	}
	return st, nil
}

// ScalarMultLanesValidated is ScalarMultLanes plus the per-lane
// end-of-SM result checks of ScalarMultValidated: a lane that ran but
// produced a bad point gets its errs[l] set to the same wrapped
// ErrOffCurve / ErrDegenerate / ErrOracleMismatch error the single-lane
// path reports, with the raw point left in outs[l] for diagnosis.
func (e *Executor) ScalarMultLanesValidated(ks []scalar.Scalar, bases []curve.Affine, outs []curve.Affine, errs []error, v Validate) (rtl.Stats, error) {
	st, err := e.ScalarMultLanes(ks, bases, outs, errs)
	if err != nil || v == ValidateNone {
		return st, err
	}
	for l := range ks {
		if errs[l] != nil {
			continue
		}
		if verr := ValidateAffine(outs[l]); verr != nil {
			errs[l] = fmt.Errorf("%w (k=%v)", verr, ks[l])
			continue
		}
		if v == ValidateOracle {
			want := curve.ScalarMult(ks[l], curve.FromAffine(bases[l])).Affine()
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				errs[l] = fmt.Errorf("%w (k=%v)", ErrOracleMismatch, ks[l])
			}
		}
	}
	return st, nil
}
