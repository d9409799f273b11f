package core

import (
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/scalar"
)

// TestExecutorScalarMultZeroAllocs pins the steady-state guarantee: a
// warm Executor running a singleton on the one-lane fast path (no
// injector) performs zero heap allocations per scalar multiplication.
func TestExecutorScalarMultZeroAllocs(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	k := DefaultTraceScalar()
	if _, _, err := ex.ScalarMult(k); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ex.ScalarMult(k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Executor.ScalarMult allocates %.1f times per run on the fast path, want 0", allocs)
	}
}

// TestExecutorFixedBaseZeroAllocs pins the same guarantee for a
// singleton fixed-base run (the comb program on the one-lane path).
func TestExecutorFixedBaseZeroAllocs(t *testing.T) {
	ex := getFBProcessor(t).NewExecutor()
	k := DefaultTraceScalar()
	if _, _, err := ex.ScalarMultFixedBase(k); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ex.ScalarMultFixedBase(k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Executor.ScalarMultFixedBase allocates %.1f times per run on the fast path, want 0", allocs)
	}
}

// TestExecutorMatchesInterpreted runs the end-to-end differential at the
// core layer: the executor's compiled path must agree with the
// reference interpreter on both the result point and the run statistics
// for random scalars.
func TestExecutorMatchesInterpreted(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(4242))
	for trial := 0; trial < 4; trial++ {
		var k scalar.Scalar
		for i := range k {
			k[i] = rng.Uint64()
		}
		want, wantSt, err := p.ScalarMultInterpreted(k)
		if err != nil {
			t.Fatalf("trial %d: interpreted: %v", trial, err)
		}
		got, gotSt, err := ex.ScalarMult(k)
		if err != nil {
			t.Fatalf("trial %d: compiled: %v", trial, err)
		}
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			t.Fatalf("trial %d: compiled result differs from interpreted", trial)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("trial %d: stats differ:\ncompiled:    %+v\ninterpreted: %+v", trial, gotSt, wantSt)
		}
	}
}
