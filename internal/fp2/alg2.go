package fp2

import (
	"math/bits"

	"repro/internal/fp"
)

// This file is a bit-exact software model of the paper's Algorithm 2: the
// pipelined Karatsuba GF(p^2) multiplier with lazy reduction. The hardware
// keeps unreduced 254..256-bit intermediates in pipeline registers and
// performs the Mersenne reduction only at the very end of the accumulation
// (the "lazy reduction" of Scott / Aranha et al.). The RTL simulator in
// internal/rtl executes exactly these stages, one per pipeline cycle.

// u256 is an unsigned 256-bit integer in four little-endian 64-bit limbs.
type u256 [4]uint64

func u256FromFp(e fp.Element) u256 {
	lo, hi := e.Limbs()
	return u256{lo, hi, 0, 0}
}

// mulWide computes the full 256-bit product of two canonical GF(p)
// elements (each < 2^127), i.e. Algorithm 2's t0, t1.
func mulWide(a, b fp.Element) u256 {
	a0, a1 := a.Limbs()
	b0, b1 := b.Limbs()
	h00, l00 := bits.Mul64(a0, b0)
	h01, l01 := bits.Mul64(a0, b1)
	h10, l10 := bits.Mul64(a1, b0)
	h11, l11 := bits.Mul64(a1, b1)

	var r u256
	r[0] = l00
	var c, c2 uint64
	r[1], c = bits.Add64(h00, l01, 0)
	r[2], c2 = bits.Add64(h01, l11, c)
	r[3] = h11 + c2
	r[1], c = bits.Add64(r[1], l10, 0)
	r[2], c2 = bits.Add64(r[2], h10, c)
	r[3] += c2
	return r
}

// mulWide128 multiplies two 128-bit values given as limb pairs (used for
// t6 = t2*t3 where the factors may reach 2^128-2).
func mulWide128(a0, a1, b0, b1 uint64) u256 {
	h00, l00 := bits.Mul64(a0, b0)
	h01, l01 := bits.Mul64(a0, b1)
	h10, l10 := bits.Mul64(a1, b0)
	h11, l11 := bits.Mul64(a1, b1)

	var r u256
	r[0] = l00
	var c, c2 uint64
	r[1], c = bits.Add64(h00, l01, 0)
	r[2], c2 = bits.Add64(h01, l11, c)
	r[3] = h11 + c2
	r[1], c = bits.Add64(r[1], l10, 0)
	r[2], c2 = bits.Add64(r[2], h10, c)
	r[3] += c2
	return r
}

func addU256(a, b u256) (r u256, carry uint64) {
	var c uint64
	r[0], c = bits.Add64(a[0], b[0], 0)
	r[1], c = bits.Add64(a[1], b[1], c)
	r[2], c = bits.Add64(a[2], b[2], c)
	r[3], c = bits.Add64(a[3], b[3], c)
	return r, c
}

func subU256(a, b u256) (r u256, borrow uint64) {
	var bw uint64
	r[0], bw = bits.Sub64(a[0], b[0], 0)
	r[1], bw = bits.Sub64(a[1], b[1], bw)
	r[2], bw = bits.Sub64(a[2], b[2], bw)
	r[3], bw = bits.Sub64(a[3], b[3], bw)
	return r, bw
}

// pRepresentative254 is 2^254 - 1 = p * (2^127 + 1), the multiple of p the
// datapath adds to make a negative 254-bit lazy value non-negative. The
// paper writes this step as "t7 <- t4 + p if t4 < 0": in the folded 254-bit
// domain the constant that plays the role of p is p*(2^127+1).
var pRepresentative254 = u256{^uint64(0), ^uint64(0), ^uint64(0), 0x3FFFFFFFFFFFFFFF}

// fold254 computes v[126:0] + v[253:127] for a 254-bit value (Algorithm 2's
// t9 computation), returning a 128-bit result as two limbs.
func fold254(v u256) (lo, hi uint64) {
	low0 := v[0]
	low1 := v[1] & 0x7FFFFFFFFFFFFFFF
	hi0 := v[1]>>63 | v[2]<<1
	hi1 := v[2]>>63 | v[3]<<1 // bits up to 253 only; caller guarantees v < 2^254
	var c uint64
	lo, c = bits.Add64(low0, hi0, 0)
	hi, _ = bits.Add64(low1, hi1, c)
	return lo, hi
}

// fold256 computes v[126:0] + v[253:127] + v[255:254] (Algorithm 2's t10
// computation), valid for the full 256-bit register.
func fold256(v u256) (lo, hi uint64) {
	top2 := v[3] >> 62 // bits 255:254, weight 2^254 == 1 (mod p)
	masked := v
	masked[3] &= 0x3FFFFFFFFFFFFFFF
	lo, hi = fold254(masked)
	var c uint64
	lo, c = bits.Add64(lo, top2, 0)
	hi += c
	return lo, hi
}

// condSubP reduces a 128-bit folded value into [0, p) with up to two
// conditional subtractions, the datapath's final correction stage. Only
// the stage-by-stage MulAlg2Trace uses it; the row kernel reaches the
// same canonical value through fp.SetLimbs.
func condSubP(lo, hi uint64) fp.Element {
	p0, p1 := fp.P()
	for i := 0; i < 2; i++ {
		if hi > p1 || (hi == p1 && lo >= p0) {
			var bw uint64
			lo, bw = bits.Sub64(lo, p0, 0)
			hi, _ = bits.Sub64(hi, p1, bw)
		}
	}
	return fp.SetLimbs(lo, hi)
}

// Alg2Trace records every named intermediate of Algorithm 2 so tests and
// the RTL model can check stage values, not just the final product.
type Alg2Trace struct {
	T0, T1, T6     u256   // wide products
	T2Lo, T2Hi     uint64 // x0+x1 (128-bit)
	T3Lo, T3Hi     uint64 // y0+y1
	T4Neg          bool   // sign of t0-t1
	T4, T5, T7, T8 u256
	T9Lo, T9Hi     uint64
	T10Lo, T10Hi   uint64
	Z0, Z1         fp.Element
}

// MulAlg2 multiplies a*b following Algorithm 2 of the paper stage by
// stage and returns the product. It is functionally identical to Mul; the
// point is that every intermediate matches the hardware pipeline register
// contents. Use MulAlg2Trace to observe the stages.
func MulAlg2(a, b Element) Element {
	tr := MulAlg2Trace(a, b)
	return Element{A: tr.Z0, B: tr.Z1}
}

// MulAlg2Trace is MulAlg2 with full visibility into the pipeline stages.
func MulAlg2Trace(x, y Element) Alg2Trace {
	var tr Alg2Trace

	// Stage 1: two wide multiplications and the two Karatsuba pre-additions.
	tr.T0 = mulWide(x.A, y.A)
	tr.T1 = mulWide(x.B, y.B)
	x0lo, x0hi := x.A.Limbs()
	x1lo, x1hi := x.B.Limbs()
	y0lo, y0hi := y.A.Limbs()
	y1lo, y1hi := y.B.Limbs()
	var c uint64
	tr.T2Lo, c = bits.Add64(x0lo, x1lo, 0)
	tr.T2Hi, _ = bits.Add64(x0hi, x1hi, c)
	tr.T3Lo, c = bits.Add64(y0lo, y1lo, 0)
	tr.T3Hi, _ = bits.Add64(y0hi, y1hi, c)

	// Stage 2: t4 = t0 - t1 (signed), t5 = t0 + t1, t6 = t2 * t3.
	var borrow uint64
	tr.T4, borrow = subU256(tr.T0, tr.T1)
	tr.T4Neg = borrow != 0
	tr.T5, _ = addU256(tr.T0, tr.T1)
	tr.T6 = mulWide128(tr.T2Lo, tr.T2Hi, tr.T3Lo, tr.T3Hi)

	// Stage 3: make t4 non-negative by adding p*(2^127+1) = 2^254-1;
	// t8 = t6 - t5 (always non-negative: it is the cross term).
	tr.T7 = tr.T4
	if tr.T4Neg {
		tr.T7, _ = addU256(tr.T4, pRepresentative254)
	}
	tr.T8, _ = subU256(tr.T6, tr.T5)

	// Stage 4: Mersenne folds.
	tr.T9Lo, tr.T9Hi = fold254(tr.T7)
	tr.T10Lo, tr.T10Hi = fold256(tr.T8)

	// Stage 5: final conditional subtractions.
	tr.Z0 = condSubP(tr.T9Lo, tr.T9Hi)
	tr.Z1 = condSubP(tr.T10Lo, tr.T10Hi)
	return tr
}

// mulAlg2Lean is MulAlg2 with the pipeline-trace bookkeeping stripped:
// the same stages in the same order on the same lazy-reduction domains,
// fused so every intermediate stays in registers instead of being
// written into an Alg2Trace, and stage 5 folded straight to canonical
// form. Outputs are bit-identical to MulAlg2 (TestMulAlg2RowsMatchesTrace
// pins it over random and edge-case inputs, TestFinalReductionBoundaries
// the final reduction at every condSubP branch).
func mulAlg2Lean(x, y Element) Element {
	x0lo, x0hi := x.A.Limbs()
	x1lo, x1hi := x.B.Limbs()
	y0lo, y0hi := y.A.Limbs()
	y1lo, y1hi := y.B.Limbs()

	// Stage 1: t0 = x0*y0 and t1 = x1*y1 (mulWide flattened into limb
	// variables so every intermediate stays in registers), plus the
	// Karatsuba pre-additions t2 = x0+x1, t3 = y0+y1.
	var c, c2 uint64
	h00, l00 := bits.Mul64(x0lo, y0lo)
	h01, l01 := bits.Mul64(x0lo, y0hi)
	h10, l10 := bits.Mul64(x0hi, y0lo)
	h11, l11 := bits.Mul64(x0hi, y0hi)
	t00 := l00
	t01, c := bits.Add64(h00, l01, 0)
	t02, c2 := bits.Add64(h01, l11, c)
	t03 := h11 + c2
	t01, c = bits.Add64(t01, l10, 0)
	t02, c2 = bits.Add64(t02, h10, c)
	t03 += c2

	h00, l00 = bits.Mul64(x1lo, y1lo)
	h01, l01 = bits.Mul64(x1lo, y1hi)
	h10, l10 = bits.Mul64(x1hi, y1lo)
	h11, l11 = bits.Mul64(x1hi, y1hi)
	t10 := l00
	t11, c := bits.Add64(h00, l01, 0)
	t12, c2 := bits.Add64(h01, l11, c)
	t13 := h11 + c2
	t11, c = bits.Add64(t11, l10, 0)
	t12, c2 = bits.Add64(t12, h10, c)
	t13 += c2

	t2lo, c := bits.Add64(x0lo, x1lo, 0)
	t2hi, _ := bits.Add64(x0hi, x1hi, c)
	t3lo, c := bits.Add64(y0lo, y1lo, 0)
	t3hi, _ := bits.Add64(y0hi, y1hi, c)

	// Stage 2: t4 = t0 - t1 (signed), t5 = t0 + t1, t6 = t2 * t3.
	var bw uint64
	t40, bw := bits.Sub64(t00, t10, 0)
	t41, bw := bits.Sub64(t01, t11, bw)
	t42, bw := bits.Sub64(t02, t12, bw)
	t43, bw := bits.Sub64(t03, t13, bw)

	t50, c := bits.Add64(t00, t10, 0)
	t51, c := bits.Add64(t01, t11, c)
	t52, c := bits.Add64(t02, t12, c)
	t53, _ := bits.Add64(t03, t13, c)

	h00, l00 = bits.Mul64(t2lo, t3lo)
	h01, l01 = bits.Mul64(t2lo, t3hi)
	h10, l10 = bits.Mul64(t2hi, t3lo)
	h11, l11 = bits.Mul64(t2hi, t3hi)
	t60 := l00
	t61, c := bits.Add64(h00, l01, 0)
	t62, c2 := bits.Add64(h01, l11, c)
	t63 := h11 + c2
	t61, c = bits.Add64(t61, l10, 0)
	t62, c2 = bits.Add64(t62, h10, c)
	t63 += c2

	// Stage 3: lift t4 into the non-negative 254-bit domain by adding
	// p*(2^127+1) = 2^254-1 when negative; t8 = t6 - t5 (the cross term,
	// always non-negative).
	if bw != 0 {
		t40, c = bits.Add64(t40, ^uint64(0), 0)
		t41, c = bits.Add64(t41, ^uint64(0), c)
		t42, c = bits.Add64(t42, ^uint64(0), c)
		t43, _ = bits.Add64(t43, 0x3FFFFFFFFFFFFFFF, c)
	}
	t80, bw := bits.Sub64(t60, t50, 0)
	t81, bw := bits.Sub64(t61, t51, bw)
	t82, bw := bits.Sub64(t62, t52, bw)
	t83, _ := bits.Sub64(t63, t53, bw)

	// Stage 4: Mersenne folds — fold254 for t4, fold256 for t8.
	z0lo, c := bits.Add64(t40, t41>>63|t42<<1, 0)
	z0hi, _ := bits.Add64(t41&mask127le, t42>>63|t43<<1, c)

	top2 := t83 >> 62
	t83 &= 0x3FFFFFFFFFFFFFFF
	z1lo, c := bits.Add64(t80, t81>>63|t82<<1, 0)
	z1hi, _ := bits.Add64(t81&mask127le, t82>>63|t83<<1, c)
	z1lo, c = bits.Add64(z1lo, top2, 0)
	z1hi += c

	// Stage 5: canonical form. fp.SetLimbs is exact for any 128-bit
	// value (a bit-127 fold plus a branchless p -> 0 select), so it gives
	// what condSubP gives without its two conditional subtractions.
	return Element{A: fp.SetLimbs(z0lo, z0hi), B: fp.SetLimbs(z1lo, z1hi)}
}

// mask127le keeps the low 63 bits of a high limb (bit 127 of the wide
// value), mirroring fold254's masking.
const mask127le = 0x7FFFFFFFFFFFFFFF

// MulAlg2Rows computes dst[i] = a[i] * b[i] with the Algorithm 2
// multiplier for whole operand rows (the lockstep lane machine's mul
// kernel, see internal/rtl). Results are bit-identical to per-element
// MulAlg2 — same stages, same lazy-reduction domains — without
// materializing a pipeline trace per product, which is what makes the
// batched path cheaper than N scalar calls. dst, a and b must have the
// same length.
func MulAlg2Rows(dst, a, b []Element) {
	_ = dst[len(a)-1] // one bounds check, then the loop body elides them
	_ = b[len(a)-1]
	for i := range a {
		dst[i] = mulAlg2Lean(a[i], b[i])
	}
}

// FpMulCount reports the number of GF(p) multiplier instances Algorithm 2
// uses (3, versus 4 for the schoolbook datapath); used by the area model.
const FpMulCount = 3

// SchoolbookFpMulCount is the GF(p) multiplier count of the naive design.
const SchoolbookFpMulCount = 4
