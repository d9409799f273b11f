package schnorrq

import (
	"context"
	"crypto/rand"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/curve"
	"repro/internal/scalar"
)

// TestSignWithMatchesSign pins the backend-routed signing path to the
// plain software path: same key, same message, byte-identical signature.
func TestSignWithMatchesSign(t *testing.T) {
	k, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("engine-routed signing must be bit-compatible")
	want := k.Sign(msg)
	got, err := k.SignWith(context.Background(), FuncScalarMulter{}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SignWith = %x, Sign = %x", got[:16], want[:16])
	}
}

// spyScalarMulter counts which backend method served each request so the
// routing decision is observable. Verification submits its two calls
// concurrently, so the counters are atomic. A non-nil failVariable or
// failFixed makes that method fail instead.
type spyScalarMulter struct {
	variable, fixed         atomic.Int64
	failVariable, failFixed error
}

func (s *spyScalarMulter) ScalarMultAffine(_ context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error) {
	s.variable.Add(1)
	if s.failVariable != nil {
		return curve.Affine{}, s.failVariable
	}
	return curve.ScalarMult(k, curve.FromAffine(base)).Affine(), nil
}

func (s *spyScalarMulter) ScalarMultFixedBase(_ context.Context, k scalar.Scalar) (curve.Affine, error) {
	s.fixed.Add(1)
	if s.failFixed != nil {
		return curve.Affine{}, s.failFixed
	}
	return curve.ScalarMult(k, curve.Generator()).Affine(), nil
}

func (s *spyScalarMulter) counts() (fixed, variable int64) {
	return s.fixed.Load(), s.variable.Load()
}

// variableOnly hides a backend's fixed-base path: only ScalarMultAffine
// is promoted from the embedded interface.
type variableOnly struct{ ScalarMulter }

// TestSignWithRoutesFixedBase pins the request-class split: a backend
// offering FixedBaseScalarMulter gets signing's [r]G on the fixed-base
// method (bit-compatible signature), and each verification puts exactly
// one call on each method: [s]G on the fixed-base one, [h]A on the
// variable-base one.
func TestSignWithRoutesFixedBase(t *testing.T) {
	ctx := context.Background()
	k, err := NewKeyFromSeed([32]byte{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("commitment rides the comb")
	spy := &spyScalarMulter{}
	sig, err := k.SignWith(ctx, spy, msg)
	if err != nil {
		t.Fatal(err)
	}
	if sig != k.Sign(msg) {
		t.Fatal("fixed-base-routed signature differs from software signature")
	}
	if fixed, variable := spy.counts(); fixed != 1 || variable != 0 {
		t.Fatalf("signing used fixed=%d variable=%d backend calls, want 1/0", fixed, variable)
	}
	ok, err := VerifyWith(ctx, spy, &k.Public, msg, sig[:])
	if err != nil || !ok {
		t.Fatalf("verification failed: ok=%v err=%v", ok, err)
	}
	if fixed, variable := spy.counts(); fixed != 2 || variable != 1 {
		t.Fatalf("after signing and one verification: fixed=%d variable=%d backend calls, want 2/1", fixed, variable)
	}
}

// TestVerifyWithBackendErrors: a backend failure on either half of the
// verification pair surfaces as an error, never as a verdict, and the
// other half is still submitted (both calls are always awaited).
func TestVerifyWithBackendErrors(t *testing.T) {
	ctx := context.Background()
	k, err := NewKeyFromSeed([32]byte{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("backend failure is not a verdict")
	sig := k.Sign(msg)
	boom := errors.New("backend down")
	for _, tc := range []struct {
		name string
		spy  *spyScalarMulter
	}{
		{"fixed-base [s]G", &spyScalarMulter{failFixed: boom}},
		{"variable-base [h]A", &spyScalarMulter{failVariable: boom}},
	} {
		ok, err := VerifyWith(ctx, tc.spy, &k.Public, msg, sig[:])
		if !errors.Is(err, boom) || ok {
			t.Fatalf("%s failing: ok=%v err=%v, want the backend error and no verdict", tc.name, ok, err)
		}
		if fixed, variable := tc.spy.counts(); fixed != 1 || variable != 1 {
			t.Fatalf("%s failing: fixed=%d variable=%d calls, want 1/1", tc.name, fixed, variable)
		}
		items := []BatchItem{{Pub: &k.Public, Msg: msg, Sig: sig[:]}}
		if ok, err := BatchVerifyWith(ctx, nil, tc.spy, items); !errors.Is(err, boom) || ok {
			t.Fatalf("%s failing in a batch: ok=%v err=%v, want the backend error", tc.name, ok, err)
		}
	}
}

// TestVerifyWithNoFixedBasePath: a backend without FixedBaseScalarMulter
// (the software FuncScalarMulter, or any backend with the method hidden)
// computes [s]G as a variable-base call and still verifies correctly.
func TestVerifyWithNoFixedBasePath(t *testing.T) {
	if _, ok := any(FuncScalarMulter{}).(FixedBaseScalarMulter); ok {
		t.Fatal("FuncScalarMulter grew a fixed-base path; this test needs a backend without one")
	}
	ctx := context.Background()
	k, err := NewKeyFromSeed([32]byte{1, 1, 2, 3, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("no comb on this backend")
	sig := k.Sign(msg)
	spy := &spyScalarMulter{}
	for _, sm := range []ScalarMulter{FuncScalarMulter{}, variableOnly{spy}} {
		if ok, err := VerifyWith(ctx, sm, &k.Public, msg, sig[:]); err != nil || !ok {
			t.Fatalf("%T: valid signature: ok=%v err=%v", sm, ok, err)
		}
		if ok, err := VerifyWith(ctx, sm, &k.Public, []byte("other"), sig[:]); err != nil || ok {
			t.Fatalf("%T: wrong message: ok=%v err=%v, want rejected", sm, ok, err)
		}
	}
	if fixed, variable := spy.counts(); fixed != 0 || variable != 4 {
		t.Fatalf("variable-only backend saw fixed=%d variable=%d calls, want 0/4", fixed, variable)
	}
}

func TestVerifyWith(t *testing.T) {
	ctx := context.Background()
	k, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("message under test")
	sig := k.Sign(msg)

	ok, err := VerifyWith(ctx, FuncScalarMulter{}, &k.Public, msg, sig[:])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid signature rejected by backend verification")
	}
	ok, err = VerifyWith(ctx, FuncScalarMulter{}, &k.Public, []byte("tampered"), sig[:])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered message accepted by backend verification")
	}
	bad := sig
	bad[0] ^= 1
	if ok, _ := VerifyWith(ctx, FuncScalarMulter{}, &k.Public, msg, bad[:]); ok {
		t.Fatal("corrupted signature accepted")
	}
	if ok, _ := VerifyWith(ctx, FuncScalarMulter{}, &k.Public, msg, sig[:10]); ok {
		t.Fatal("truncated signature accepted")
	}
}
