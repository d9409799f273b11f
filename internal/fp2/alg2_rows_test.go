package fp2

import (
	"math/bits"
	mrand "math/rand"
	"testing"

	"repro/internal/fp"
)

// TestMulAlg2RowsMatchesTrace pins the lean row kernel to the traced
// Algorithm 2 model bit for bit: random elements plus the lazy-
// reduction edge cases (zero, one, maximal limbs — the inputs that
// exercise T4's sign lift and condSubP's double subtraction).
func TestMulAlg2RowsMatchesTrace(t *testing.T) {
	pm1 := fp.SetLimbs(^uint64(0)-1, ^uint64(0)>>1) // p - 1
	edges := []Element{
		{},
		New(fp.One(), fp.Zero()),
		New(fp.Zero(), fp.One()),
		New(pm1, pm1),
		New(pm1, fp.Zero()),
		New(fp.Zero(), pm1),
		New(fp.One(), pm1),
	}
	rng := mrand.New(mrand.NewSource(97))
	var a, b []Element
	for _, x := range edges {
		for _, y := range edges {
			a = append(a, x)
			b = append(b, y)
		}
	}
	for i := 0; i < 512; i++ {
		a = append(a, randElement(rng))
		b = append(b, randElement(rng))
	}
	dst := make([]Element, len(a))
	MulAlg2Rows(dst, a, b)
	for i := range a {
		want := MulAlg2(a[i], b[i])
		if !dst[i].Equal(want) {
			t.Fatalf("pair %d: row kernel %v != traced MulAlg2 %v for %v * %v",
				i, dst[i], want, a[i], b[i])
		}
	}
}

// TestFinalReductionBoundaries pins the row kernel's stage-5 reduction
// (fp.SetLimbs on the folded 128-bit value) to the traced model's
// condSubP at the values where condSubP subtracts p zero, one or two
// times, then checks that the traced pipeline's own folded values
// reduce the same way in full products.
func TestFinalReductionBoundaries(t *testing.T) {
	p0, p1 := fp.P()
	type u128 struct{ lo, hi uint64 }
	add := func(a u128, lo uint64) u128 {
		r, c := bits.Add64(a.lo, lo, 0)
		return u128{r, a.hi + c}
	}
	p := u128{p0, p1}
	twoP := u128{p0 << 1, p1<<1 | p0>>63}
	cases := map[string]u128{
		"0":         {},
		"p-1":       {p0 - 1, p1},
		"p":         p,
		"p+1":       add(p, 1),
		"2p":        twoP,
		"2p+1":      add(twoP, 1),
		"2^128-1":   {^uint64(0), ^uint64(0)},
		"2^127":     {0, 1 << 63},
		"2^127+p-1": add(u128{0, 1 << 63}, p0-1),
	}
	for name, v := range cases {
		got := fp.SetLimbs(v.lo, v.hi)
		want := condSubP(v.lo, v.hi)
		if !got.Equal(want) {
			t.Errorf("%s: SetLimbs = %v, condSubP = %v", name, got, want)
		}
	}

	rng := mrand.New(mrand.NewSource(131))
	pm1 := fp.SetLimbs(p0-1, p1)
	ops := []Element{{}, New(fp.One(), fp.One()), New(pm1, pm1), New(pm1, fp.One()), New(fp.One(), pm1)}
	for i := 0; i < 256; i++ {
		ops = append(ops, randElement(rng))
	}
	var dst [1]Element
	for i, x := range ops {
		y := ops[(i*7+3)%len(ops)]
		tr := MulAlg2Trace(x, y)
		if !fp.SetLimbs(tr.T9Lo, tr.T9Hi).Equal(tr.Z0) || !fp.SetLimbs(tr.T10Lo, tr.T10Hi).Equal(tr.Z1) {
			t.Fatalf("pair %d: SetLimbs on the traced folds differs from condSubP", i)
		}
		MulAlg2Rows(dst[:], []Element{x}, []Element{y})
		if !dst[0].Equal(Element{A: tr.Z0, B: tr.Z1}) {
			t.Fatalf("pair %d: row kernel %v != MulAlg2Trace %v", i, dst[0], Element{A: tr.Z0, B: tr.Z1})
		}
	}
}

// FuzzMulAlg2RowsEquivalence fuzzes the lean kernel against the traced
// model over arbitrary limb patterns (SetLimbs canonicalizes them).
func FuzzMulAlg2RowsEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0),
		uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
		^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		a := New(fp.SetLimbs(a0, a1), fp.SetLimbs(a2, a3))
		b := New(fp.SetLimbs(b0, b1), fp.SetLimbs(b2, b3))
		var dst [1]Element
		MulAlg2Rows(dst[:], []Element{a}, []Element{b})
		if want := MulAlg2(a, b); !dst[0].Equal(want) {
			t.Fatalf("row kernel %v != traced MulAlg2 %v for %v * %v", dst[0], want, a, b)
		}
	})
}

func BenchmarkMulAlg2Rows(b *testing.B) {
	rng := mrand.New(mrand.NewSource(5))
	const n = 8
	var av, bv, dst [n]Element
	for i := range av {
		av[i] = randElement(rng)
		bv[i] = randElement(rng)
	}
	b.Run("traced-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i += n {
			for l := 0; l < n; l++ {
				dst[l] = MulAlg2(av[l], bv[l])
			}
		}
	})
	b.Run("lean-rows", func(b *testing.B) {
		for i := 0; i < b.N; i += n {
			MulAlg2Rows(dst[:], av[:], bv[:])
		}
	})
	sinkRows = dst
}

var sinkRows [8]Element
