package core

import (
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/rtl"
	"repro/internal/scalar"
)

func randScalarCore(r *mrand.Rand) scalar.Scalar {
	var k scalar.Scalar
	for i := range k {
		k[i] = r.Uint64()
	}
	return k
}

// laneCase builds n random (scalar, base) pairs mixing fixed-base
// (generator) and variable-base lanes.
func laneCase(rng *mrand.Rand, n int) ([]scalar.Scalar, []curve.Affine) {
	ks := make([]scalar.Scalar, n)
	bases := make([]curve.Affine, n)
	for l := 0; l < n; l++ {
		ks[l] = randScalarCore(rng)
		if l%2 == 0 {
			bases[l] = curve.GeneratorAffine()
		} else {
			bases[l] = curve.ScalarMultBinary(randScalarCore(rng), curve.Generator()).Affine()
		}
	}
	return ks, bases
}

// interpretOnly is a pass-through rtl.Injector: attaching it changes no
// value, but forces every run onto the reference interpreter, which
// makes an executor carrying it an independent oracle for the lockstep
// path (every uninjected run, singletons included, is lockstep).
type interpretOnly struct{}

func (interpretOnly) BeginCycle(int, rtl.RegFile)                                {}
func (interpretOnly) Fetch(_ int, ins isa.Instr) (isa.Instr, bool)               { return ins, true }
func (interpretOnly) Forward(_ int, _ uint8, v fp2.Element) fp2.Element          { return v }
func (interpretOnly) Retire(_ int, _ uint8, _ uint16, v fp2.Element) fp2.Element { return v }

// interpretedExecutor returns an executor whose runs all take the
// reference interpreter.
func interpretedExecutor(p *Processor) *Executor {
	ex := p.NewExecutor()
	ex.SetInjector(interpretOnly{})
	return ex
}

// TestScalarMultLanesParity: the lockstep executor path must agree,
// lane for lane, with interpreter-backed ScalarMultPoint runs — same
// points, same Stats — over mixed fixed/variable-base batches and
// partial batches narrower than the widest the executor has seen.
func TestScalarMultLanesParity(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	ref := interpretedExecutor(p)
	rng := mrand.New(mrand.NewSource(777))
	for _, n := range []int{4, 1, 3} { // widest first: later runs are partial batches
		ks, bases := laneCase(rng, n)
		outs := make([]curve.Affine, n)
		errs := make([]error, n)
		st, err := ex.ScalarMultLanes(ks, bases, outs, errs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for l := 0; l < n; l++ {
			if errs[l] != nil {
				t.Fatalf("n=%d lane %d: %v", n, l, errs[l])
			}
			want, wantSt, err := ref.ScalarMultPoint(ks[l], bases[l])
			if err != nil {
				t.Fatal(err)
			}
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				t.Fatalf("n=%d lane %d: lockstep point differs from the interpreter", n, l)
			}
			if !reflect.DeepEqual(st, wantSt) {
				t.Fatalf("n=%d lane %d: stats differ", n, l)
			}
		}
	}
	if ex.Runs() != 8 {
		t.Fatalf("executor counted %d runs, want 8", ex.Runs())
	}
}

// TestScalarMultLanesValidated checks the per-lane validation contract:
// all-good batches pass every level, and the oracle level agrees with
// the functional model.
func TestScalarMultLanesValidated(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(778))
	ks, bases := laneCase(rng, 3)
	outs := make([]curve.Affine, 3)
	errs := make([]error, 3)
	for _, v := range []Validate{ValidateNone, ValidateOnCurve, ValidateOracle} {
		if _, err := ex.ScalarMultLanesValidated(ks, bases, outs, errs, v); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for l := range errs {
			if errs[l] != nil {
				t.Fatalf("%v lane %d: %v", v, l, errs[l])
			}
			want := curve.ScalarMult(ks[l], curve.FromAffine(bases[l])).Affine()
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				t.Fatalf("%v lane %d: wrong point", v, l)
			}
		}
	}
}

// TestScalarMultLanesRejectsMisuse covers the whole-batch error paths.
func TestScalarMultLanesRejectsMisuse(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	if _, err := ex.ScalarMultLanes(nil, nil, nil, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	ks := []scalar.Scalar{DefaultTraceScalar(), DefaultTraceScalar()}
	bases := []curve.Affine{curve.GeneratorAffine()}
	if _, err := ex.ScalarMultLanes(ks, bases, make([]curve.Affine, 2), make([]error, 2)); err == nil {
		t.Fatal("mismatched bases length must error")
	}
}

// TestScalarMultLanesZeroAllocs pins the steady-state guarantee at the
// executor layer: a warm lane batch allocates nothing per run.
func TestScalarMultLanesZeroAllocs(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(779))
	const n = 4
	ks, bases := laneCase(rng, n)
	outs := make([]curve.Affine, n)
	errs := make([]error, n)
	if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScalarMultLanes allocates %.1f times per batch steady-state, want 0", allocs)
	}
}

// FuzzLaneParity cross-checks the full scalar-multiplication program in
// lockstep against the interpreter-backed executor for random lane
// counts and scalars; seeds cover the degenerate single lane and the
// full width.
func FuzzLaneParity(f *testing.F) {
	const maxLanes = 4
	f.Add(uint8(0), uint64(0xabcd)) // 1 lane
	f.Add(uint8(maxLanes-1), uint64(0xef01))
	p := getProcessor(f)
	ex := p.NewExecutor()
	ref := interpretedExecutor(p)
	f.Fuzz(func(t *testing.T, lanes uint8, seed uint64) {
		n := int(lanes%maxLanes) + 1
		rng := mrand.New(mrand.NewSource(int64(seed)))
		ks, bases := laneCase(rng, n)
		outs := make([]curve.Affine, n)
		errs := make([]error, n)
		if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < n; l++ {
			if errs[l] != nil {
				t.Fatalf("lane %d: %v", l, errs[l])
			}
			want, _, err := ref.ScalarMultPoint(ks[l], bases[l])
			if err != nil {
				t.Fatal(err)
			}
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				t.Fatalf("lane %d: lockstep diverges from the interpreter", l)
			}
		}
	})
}
