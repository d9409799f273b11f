package core

import (
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/isa"
	"repro/internal/rtl"
	"repro/internal/scalar"
)

// sharedFBProcessor is the FixedBase-enabled counterpart of
// sharedProcessor, built once per test binary.
var sharedFBProcessor *Processor

func getFBProcessor(t testing.TB) *Processor {
	t.Helper()
	if sharedFBProcessor == nil {
		p, err := New(Config{FixedBase: true})
		if err != nil {
			t.Fatal(err)
		}
		sharedFBProcessor = p
	}
	return sharedFBProcessor
}

func TestFixedBaseGated(t *testing.T) {
	p := getProcessor(t)
	if p.HasFixedBase() {
		t.Fatal("default Config built the fixed-base program")
	}
	if _, _, err := p.ScalarMultFixedBase(scalar.Scalar{1}); err == nil {
		t.Fatal("ScalarMultFixedBase on a processor without the program did not error")
	}
	// The executor degrades gracefully to the variable-base program.
	e := p.NewExecutor()
	if e.HasFixedBase() {
		t.Fatal("executor reports fixed-base on a processor without it")
	}
	k := scalar.Scalar{5, 6, 7, 8}
	got, _, err := e.ScalarMultFixedBase(k)
	if err != nil {
		t.Fatal(err)
	}
	want := curve.ScalarMult(k, curve.Generator()).Affine()
	if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
		t.Fatal("fallback fixed-base result differs from library")
	}
}

func TestFixedBaseCacheKeyDistinct(t *testing.T) {
	if (Config{}).CacheKey() == (Config{FixedBase: true}.CacheKey()) {
		t.Fatal("FixedBase does not differentiate the cache key")
	}
}

func TestFixedBaseMakespan(t *testing.T) {
	p := getFBProcessor(t)
	if !p.HasFixedBase() {
		t.Fatal("FixedBase config did not build the program")
	}
	fb, vb := p.CyclesFixedBase(), p.CyclesFunctional()
	// The comb trades the doubling chain for ROM: the ISSUE gate is
	// fb <= vb/2 even against the portfolio-optimized variable-base
	// schedule, and default list scheduling already clears it.
	if fb == 0 || fb > vb/2 {
		t.Fatalf("fixed-base makespan %d not below half the variable-base %d", fb, vb)
	}
	t.Logf("makespan: fixedbase=%d variable=%d (%.2fx)", fb, vb, float64(fb)/float64(vb))
}

func TestFixedBaseMatchesLibrary(t *testing.T) {
	p := getFBProcessor(t)
	e := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(31))
	scalars := []scalar.Scalar{
		{}, {1}, {42},
		scalar.FromBig(scalar.Order()),
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
		{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
		{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
	}
	for i, k := range scalars {
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		got, _, err := p.ScalarMultFixedBase(k)
		if err != nil {
			t.Fatalf("scalar %d: processor: %v", i, err)
		}
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			t.Fatalf("scalar %d: processor fixed-base result differs from library", i)
		}
		got, _, err = e.ScalarMultFixedBaseValidated(k, ValidateOracle)
		if err != nil {
			t.Fatalf("scalar %d: executor: %v", i, err)
		}
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			t.Fatalf("scalar %d: executor fixed-base result differs from library", i)
		}
	}
}

func TestFixedBaseLanesParity(t *testing.T) {
	p := getFBProcessor(t)
	e := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(32))
	const n = 5
	ks := make([]scalar.Scalar, n)
	for i := range ks {
		ks[i] = scalar.Scalar{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	ks[2] = scalar.Scalar{2} // even: correction path in one lane only
	outs := make([]curve.Affine, n)
	errs := make([]error, n)
	if _, err := e.ScalarMultFixedBaseLanesValidated(ks, outs, errs, ValidateOracle); err != nil {
		t.Fatal(err)
	}
	for l, k := range ks {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
			t.Fatalf("lane %d: lockstep fixed-base result differs from library", l)
		}
	}
}

// squashRun is an rtl.Injector that squashes every control-ROM slot of
// one run (counted from 1 at each cycle-0 BeginCycle), so that run ends
// with its outputs never written: a structural error for that lane.
type squashRun struct {
	interpretOnly
	run, target int
}

func (s *squashRun) BeginCycle(cycle int, _ rtl.RegFile) {
	if cycle == 0 {
		s.run++
	}
}
func (s *squashRun) Fetch(_ int, ins isa.Instr) (isa.Instr, bool) {
	return ins, s.run != s.target
}

// TestFixedBaseLanesFaultedLastLaneKeepsStats: with an injector
// attached, the per-lane fallback must return the comb program's Stats
// even when the last lane faults — a faulted lane's Stats{} would
// otherwise stamp zero cycles on every successful lane-mate.
func TestFixedBaseLanesFaultedLastLaneKeepsStats(t *testing.T) {
	p := getFBProcessor(t)
	e := p.NewExecutor()
	const n = 3
	e.SetInjector(&squashRun{target: n})
	ks := []scalar.Scalar{{11}, {12, 13}, {14, 15, 16}}
	outs := make([]curve.Affine, n)
	errs := make([]error, n)
	st, err := e.ScalarMultFixedBaseLanes(ks, outs, errs)
	if err != nil {
		t.Fatal(err)
	}
	if errs[n-1] == nil {
		t.Fatal("last lane: injected fault did not fail the run")
	}
	for l := 0; l < n-1; l++ {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		want := curve.ScalarMult(ks[l], curve.Generator()).Affine()
		if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
			t.Fatalf("lane %d: wrong point", l)
		}
	}
	if want := p.fbCompiled.Stats(); !reflect.DeepEqual(st, want) {
		t.Fatalf("stats after a faulted last lane = %+v, want the comb program's %+v", st, want)
	}
	if st.Cycles != p.FixedBaseProgram().Makespan {
		t.Fatalf("stats cycles = %d, want the comb makespan %d", st.Cycles, p.FixedBaseProgram().Makespan)
	}
}
