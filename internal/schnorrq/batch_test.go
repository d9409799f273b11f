package schnorrq

import (
	"context"
	"crypto/rand"
	"errors"
	"testing"

	"repro/internal/curve"
)

func makeBatch(t testing.TB, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		k, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte{byte(i), byte(i * 3), 0x55}
		sig := k.Sign(msg)
		items[i] = BatchItem{Pub: &k.Public, Msg: msg, Sig: sig[:]}
	}
	return items
}

func TestBatchVerifyValid(t *testing.T) {
	items := makeBatch(t, 6)
	ok, err := BatchVerify(rand.Reader, items)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid batch rejected")
	}
}

func TestBatchVerifyEmpty(t *testing.T) {
	ok, err := BatchVerify(rand.Reader, nil)
	if err != nil || !ok {
		t.Fatal("empty batch should verify")
	}
}

func TestBatchVerifySingle(t *testing.T) {
	items := makeBatch(t, 1)
	ok, err := BatchVerify(rand.Reader, items)
	if err != nil || !ok {
		t.Fatal("single-item batch rejected")
	}
}

func TestBatchVerifyCatchesForgery(t *testing.T) {
	for corrupt := 0; corrupt < 3; corrupt++ {
		items := makeBatch(t, 5)
		switch corrupt {
		case 0: // tamper a message
			items[2].Msg = []byte("tampered")
		case 1: // tamper s
			sig := append([]byte(nil), items[3].Sig...)
			sig[len(sig)-5] ^= 1
			items[3].Sig = sig
		case 2: // swap signatures between messages
			items[0].Sig, items[1].Sig = items[1].Sig, items[0].Sig
		}
		ok, err := BatchVerify(rand.Reader, items)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("corrupted batch (mode %d) accepted", corrupt)
		}
	}
}

func TestBatchVerifyMalformed(t *testing.T) {
	items := makeBatch(t, 2)
	items[1].Sig = items[1].Sig[:10]
	if _, err := BatchVerify(rand.Reader, items); err == nil {
		t.Fatal("truncated signature not reported as malformed")
	}
	items = makeBatch(t, 2)
	items[0].Pub = nil
	if _, err := BatchVerify(rand.Reader, items); err == nil {
		t.Fatal("nil pub not reported")
	}
}

func TestBatchAgreesWithSingleVerify(t *testing.T) {
	items := makeBatch(t, 4)
	// Every item verifies individually.
	for i, it := range items {
		if !Verify(it.Pub, it.Msg, it.Sig) {
			t.Fatalf("item %d fails single verification", i)
		}
	}
	ok, err := BatchVerify(rand.Reader, items)
	if err != nil || !ok {
		t.Fatal("batch disagrees with single verification")
	}
}

// TestBatchVerifyWithDifferential pins BatchVerifyWith (n concurrent
// VerifyWith pairs on a backend) to the software BatchVerify oracle and
// to per-item Verify, over valid batches of several sizes and every
// forgery mode: a forged message in the first, middle and last
// position, a flipped bit of s, swapped signatures, a bad point
// encoding and a non-canonical s. Every item with a well-formed
// encoding costs exactly one fixed-base and one variable-base call.
func TestBatchVerifyWithDifferential(t *testing.T) {
	ctx := context.Background()
	const n = 5
	badPoint := func(items []BatchItem, i int) {
		sig := append([]byte(nil), items[i].Sig...)
		for j := 0; j < curve.Size; j++ {
			sig[j] = 0xFF
		}
		if _, err := curve.FromBytes(sig[:curve.Size]); err == nil {
			t.Fatal("test encoding decodes to a point")
		}
		items[i].Sig = sig
	}
	nonCanonicalS := func(items []BatchItem, i int) {
		sig := append([]byte(nil), items[i].Sig...)
		for j := curve.Size; j < len(sig); j++ {
			sig[j] = 0xFF
		}
		items[i].Sig = sig
	}
	flipS := func(items []BatchItem, i int) {
		sig := append([]byte(nil), items[i].Sig...)
		sig[len(sig)-5] ^= 1
		items[i].Sig = sig
	}
	none := func([]BatchItem) {}
	cases := []struct {
		name    string
		size    int
		corrupt func([]BatchItem)
		valid   bool
		calls   int64 // per method: items whose encoding parses
	}{
		{"valid n=1", 1, none, true, 1},
		{"valid n=2", 2, none, true, 2},
		{"valid n=5", n, none, true, n},
		{"forged first", n, func(it []BatchItem) { it[0].Msg = []byte("forged") }, false, n},
		{"forged middle", n, func(it []BatchItem) { it[n/2].Msg = []byte("forged") }, false, n},
		{"forged last", n, func(it []BatchItem) { it[n-1].Msg = []byte("forged") }, false, n},
		{"flipped s", n, func(it []BatchItem) { flipS(it, 3) }, false, n},
		{"swapped signatures", n, func(it []BatchItem) { it[0].Sig, it[1].Sig = it[1].Sig, it[0].Sig }, false, n},
		{"bad point encoding", n, func(it []BatchItem) { badPoint(it, 1) }, false, n - 1},
		{"non-canonical s", n, func(it []BatchItem) { nonCanonicalS(it, 3) }, false, n - 1},
	}
	for _, tc := range cases {
		items := makeBatch(t, tc.size)
		tc.corrupt(items)
		single := true
		for _, it := range items {
			single = single && Verify(it.Pub, it.Msg, it.Sig)
		}
		oracle, err := BatchVerify(rand.Reader, items)
		if err != nil {
			t.Fatalf("%s: BatchVerify: %v", tc.name, err)
		}
		if oracle != tc.valid || single != tc.valid {
			t.Fatalf("%s: BatchVerify=%v per-item Verify=%v, want %v", tc.name, oracle, single, tc.valid)
		}
		spy := &spyScalarMulter{}
		for _, sm := range []ScalarMulter{spy, FuncScalarMulter{}} {
			got, err := BatchVerifyWith(ctx, rand.Reader, sm, items)
			if err != nil {
				t.Fatalf("%s on %T: %v", tc.name, sm, err)
			}
			if got != tc.valid {
				t.Fatalf("%s on %T: BatchVerifyWith=%v, want %v", tc.name, sm, got, tc.valid)
			}
		}
		if fixed, variable := spy.counts(); fixed != tc.calls || variable != tc.calls {
			t.Fatalf("%s: fixed=%d variable=%d calls, want %d each", tc.name, fixed, variable, tc.calls)
		}
	}
}

func TestBatchVerifyWithEmptyAndMalformed(t *testing.T) {
	ctx := context.Background()
	sm := FuncScalarMulter{}
	if ok, err := BatchVerifyWith(ctx, rand.Reader, sm, nil); err != nil || !ok {
		t.Fatal("empty batch should verify")
	}
	items := makeBatch(t, 2)
	items[1].Sig = items[1].Sig[:10]
	if _, err := BatchVerifyWith(ctx, rand.Reader, sm, items); err == nil {
		t.Fatal("truncated signature not reported as malformed")
	}
	// A structurally valid but non-canonical s rejects without error,
	// matching BatchVerify.
	items = makeBatch(t, 2)
	sig := append([]byte(nil), items[1].Sig...)
	for i := curve.Size; i < len(sig); i++ {
		sig[i] = 0xFF
	}
	items[1].Sig = sig
	ok, err := BatchVerifyWith(ctx, rand.Reader, sm, items)
	if err != nil || ok {
		t.Fatalf("non-canonical s: ok=%v err=%v, want rejected without error", ok, err)
	}
}

// TestBatchVerifyWithMisuseMakesNoCalls: a nil key or a wrong-length
// signature anywhere in the batch is reported as errBadBatch before any
// backend call, even when the bad item comes last.
func TestBatchVerifyWithMisuseMakesNoCalls(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		corrupt func(*BatchItem)
	}{
		{"nil key", func(it *BatchItem) { it.Pub = nil }},
		{"short signature", func(it *BatchItem) { it.Sig = it.Sig[:SignatureSize-1] }},
		{"long signature", func(it *BatchItem) { it.Sig = append(append([]byte(nil), it.Sig...), 0) }},
	} {
		items := makeBatch(t, 3)
		tc.corrupt(&items[2])
		spy := &spyScalarMulter{}
		ok, err := BatchVerifyWith(ctx, rand.Reader, spy, items)
		if !errors.Is(err, errBadBatch) || ok {
			t.Fatalf("%s: ok=%v err=%v, want errBadBatch", tc.name, ok, err)
		}
		if fixed, variable := spy.counts(); fixed != 0 || variable != 0 {
			t.Fatalf("%s: %d fixed + %d variable backend calls before the misuse was reported", tc.name, fixed, variable)
		}
	}
}

func BenchmarkBatchVerify16(b *testing.B) {
	items := makeBatch(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := BatchVerify(rand.Reader, items)
		if err != nil || !ok {
			b.Fatal("batch failed")
		}
	}
}

func BenchmarkSingleVerify16(b *testing.B) {
	items := makeBatch(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if !Verify(it.Pub, it.Msg, it.Sig) {
				b.Fatal("verify failed")
			}
		}
	}
}
