package schnorrq

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/curve"
	"repro/internal/scalar"
)

// Batch verification: n signatures verify together with one random
// linear combination,
//
//	[sum z_i*s_i]G + sum [z_i*h_i]A_i - sum [z_i]R_i == O,
//
// where the z_i are fresh random 128-bit weights (z_0 = 1). A single
// multi-scalar multiplication replaces n double-scalar multiplications,
// which is how a roadside unit would keep up with dense traffic. If the
// batch fails, fall back to one-by-one verification to isolate the bad
// message.
//
// The two entry points differ in how they evaluate a batch. BatchVerify
// is the in-process random-linear-combination oracle: the saving comes
// from the multi-scalar ladder sharing its doublings. BatchVerifyWith
// routes work through a pluggable ScalarMulter — the same backend seam
// SignWith/VerifyWith use — whose every call is a whole scalar
// multiplication with no doublings to share, so there a combination
// would only add terms. It verifies each item exactly instead: n
// concurrent VerifyWith pairs, n of whose 2n calls ride the backend's
// fixed-base path.

// BatchItem pairs a message with its signature and signer.
type BatchItem struct {
	Pub *PublicKey
	Msg []byte
	Sig []byte
}

// errBadBatch reports a malformed batch entry.
var errBadBatch = errors.New("schnorrq: malformed batch entry")

// batchTerms is the parsed random linear combination of a batch: the
// generator coefficient sum z_i*s_i plus the per-signature term pairs
// ([z_i*h_i]A_i and [z_i](-R_i)) ready for any multi-scalar evaluator.
type batchTerms struct {
	sSum    scalar.Scalar
	scalars []scalar.Scalar
	points  []curve.Point
}

// collectBatchTerms parses and weighs every item. The bool mirrors the
// verification verdict for structurally invalid signatures (bad point or
// non-canonical scalar encodings reject the batch without error, exactly
// as a single Verify answers false); the error reports misuse (nil
// public key, wrong-length signature) or a randomness failure.
func collectBatchTerms(rand io.Reader, items []BatchItem) (batchTerms, bool, error) {
	var bt batchTerms
	bt.scalars = make([]scalar.Scalar, 0, 2*len(items))
	bt.points = make([]curve.Point, 0, 2*len(items))
	for i, it := range items {
		if it.Pub == nil || len(it.Sig) != SignatureSize {
			return bt, false, errBadBatch
		}
		R, err := curve.FromBytes(it.Sig[:curve.Size])
		if err != nil {
			return bt, false, nil // invalid encoding: batch rejects
		}
		s, err := scalar.FromBytes(it.Sig[curve.Size:])
		if err != nil || s.Big().Cmp(scalar.Order()) >= 0 {
			return bt, false, nil
		}
		h := hashToScalar(it.Sig[:curve.Size], it.Pub.enc[:], it.Msg)

		z := scalar.FromUint64(1)
		if i > 0 {
			// 128-bit random weight.
			var buf [16]byte
			if _, err := io.ReadFull(rand, buf[:]); err != nil {
				return bt, false, err
			}
			var zs scalar.Scalar
			for j := 0; j < 8; j++ {
				zs[0] |= uint64(buf[j]) << (8 * j)
				zs[1] |= uint64(buf[8+j]) << (8 * j)
			}
			if zs.IsZero() {
				zs = scalar.FromUint64(1)
			}
			z = zs
		}

		bt.sSum = scalar.AddModN(bt.sSum, scalar.MulModN(z, s))
		bt.scalars = append(bt.scalars, scalar.MulModN(z, h))
		bt.points = append(bt.points, it.Pub.A)
		bt.scalars = append(bt.scalars, z)
		bt.points = append(bt.points, R.Neg())
	}
	return bt, true, nil
}

// BatchVerify checks all items together; randomness for the weights is
// drawn from rand. An empty batch verifies trivially.
func BatchVerify(rand io.Reader, items []BatchItem) (bool, error) {
	if len(items) == 0 {
		return true, nil
	}
	bt, ok, err := collectBatchTerms(rand, items)
	if !ok || err != nil {
		return false, err
	}
	total := curve.Add(
		curve.ScalarMult(bt.sSum, curve.Generator()),
		curve.MultiScalarMult(bt.scalars, bt.points),
	)
	return total.IsIdentity(), nil
}

// BatchVerifyWith checks all items on the backend: each one is a
// VerifyWith pair ([s_i]G on the fixed-base path when the backend has
// one, [h_i]A_i variable-base), and all n pairs are submitted
// concurrently, so an engine-backed ScalarMulter coalesces them into
// lockstep lanes. The verdict is exact: true iff every item verifies.
// rand is unused (the signature matches BatchVerify). A nil public key
// or a wrong-length signature is misuse, reported as an error before
// any backend call; any other error reports a backend failure (on which
// the verdict is meaningless).
func BatchVerifyWith(ctx context.Context, _ io.Reader, sm ScalarMulter, items []BatchItem) (bool, error) {
	for _, it := range items {
		if it.Pub == nil || len(it.Sig) != SignatureSize {
			return false, errBadBatch
		}
	}
	oks := make([]bool, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	wg.Add(len(items))
	for i, it := range items {
		go func() {
			defer wg.Done()
			oks[i], errs[i] = VerifyWith(ctx, sm, it.Pub, it.Msg, it.Sig)
		}()
	}
	wg.Wait()
	valid := true
	for i := range items {
		if errs[i] != nil {
			return false, errs[i]
		}
		valid = valid && oks[i]
	}
	return valid, nil
}
