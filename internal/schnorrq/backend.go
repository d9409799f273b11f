package schnorrq

import (
	"context"
	"errors"

	"repro/internal/curve"
	"repro/internal/scalar"
)

// ScalarMulter is a pluggable backend for the scheme's scalar
// multiplications, satisfied by internal/engine.Engine: SignWith and
// VerifyWith route every [k]P through it instead of the in-process
// functional model, so signatures can be produced and checked on the
// modeled accelerator (or any other offload path).
type ScalarMulter interface {
	ScalarMultAffine(ctx context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error)
}

// FixedBaseScalarMulter is the optional fast path of a ScalarMulter: a
// backend that can compute generator multiplications [k]G on a cheaper
// dedicated schedule (internal/engine routes them to the fixed-base
// comb microprogram). SignWith and VerifyWith type-assert for it, so
// signing's commitment [r]G and verification's [s]G automatically ride
// the cheap schedule when the backend offers one; verification's [h]A
// is genuinely variable-base and stays on ScalarMultAffine.
type FixedBaseScalarMulter interface {
	ScalarMultFixedBase(ctx context.Context, k scalar.Scalar) (curve.Affine, error)
}

// scalarMultBase computes [k]G on the backend's fixed-base path when it
// has one, and as a variable-base [k]G otherwise.
func scalarMultBase(ctx context.Context, sm ScalarMulter, k scalar.Scalar) (curve.Affine, error) {
	if fb, ok := sm.(FixedBaseScalarMulter); ok {
		return fb.ScalarMultFixedBase(ctx, k)
	}
	return sm.ScalarMultAffine(ctx, k, curve.GeneratorAffine())
}

// SignWith produces the same deterministic signature as Sign, computing
// the commitment R = [r]G on the backend (on its fixed-base path when
// it implements FixedBaseScalarMulter).
func (k *PrivateKey) SignWith(ctx context.Context, sm ScalarMulter, msg []byte) ([SignatureSize]byte, error) {
	var sig [SignatureSize]byte
	r := hashToScalar(k.prefix[:], msg)
	if r.IsZero() {
		r = scalar.FromUint64(1) // mirror Sign's degenerate-nonce fallback
	}
	Ra, err := scalarMultBase(ctx, sm, r)
	if err != nil {
		return sig, err
	}
	Renc := curve.FromAffine(Ra).Bytes()
	h := hashToScalar(Renc[:], k.Public.enc[:], msg)
	s := scalar.SubModN(r, scalar.MulModN(h, k.d))

	copy(sig[:curve.Size], Renc[:])
	sb := s.Bytes()
	copy(sig[curve.Size:], sb[:])
	return sig, nil
}

// VerifyWith checks a signature like Verify, computing the two scalar
// multiplications on the backend concurrently — [s]G on its fixed-base
// path when it has one (s is public), [h]A as a variable-base call — and
// combining them with one functional point addition. Both calls are
// always awaited. The bool is the verdict; the error reports a backend
// failure of either call (on which the verdict is meaningless).
func VerifyWith(ctx context.Context, sm ScalarMulter, pub *PublicKey, msg, sig []byte) (bool, error) {
	if len(sig) != SignatureSize {
		return false, nil
	}
	R, err := curve.FromBytes(sig[:curve.Size])
	if err != nil {
		return false, nil
	}
	s, err := scalar.FromBytes(sig[curve.Size:])
	if err != nil {
		return false, nil
	}
	if s.Big().Cmp(scalar.Order()) >= 0 {
		return false, nil
	}
	h := hashToScalar(sig[:curve.Size], pub.enc[:], msg)

	var sG curve.Affine
	var sErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sG, sErr = scalarMultBase(ctx, sm, s)
	}()
	hA, hErr := sm.ScalarMultAffine(ctx, h, pub.A.Affine())
	<-done
	if sErr != nil {
		return false, sErr
	}
	if hErr != nil {
		return false, hErr
	}
	lhs := curve.Add(curve.FromAffine(sG), curve.FromAffine(hA))
	return lhs.Equal(R), nil
}

// FuncScalarMulter adapts the pure functional curve model to the
// ScalarMulter interface — the software fallback and the differential
// reference for engine-backed signing.
type FuncScalarMulter struct{}

// ScalarMultAffine computes [k]base in software.
func (FuncScalarMulter) ScalarMultAffine(_ context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error) {
	if !base.IsOnCurveAffine() {
		return curve.Affine{}, errors.New("schnorrq: base point not on curve")
	}
	return curve.ScalarMult(k, curve.FromAffine(base)).Affine(), nil
}
