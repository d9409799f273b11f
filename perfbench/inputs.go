package main

import (
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"

	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
	"repro/internal/serve"
)

// Every input is drawn from a PCG stream named by (seed, stream, index),
// so the same seed gives the same inputs however many of them a run
// consumes and however many goroutines generate them.
const (
	streamOfflineLow uint64 = iota + 1
	streamOfflineMain
	streamOfflineWarm
	streamLow
	streamMid
	streamSearch // + step
	streamOver   = streamSearch + 16
	streamLayers
	streamBurst
	streamServeWarm
)

// repeatStream offsets the stream of a phase measured once more.
const repeatStream uint64 = 1 << 16

func newRand(seed, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<40^i))
}

// randScalar draws a uniform nonzero scalar below the group order.
func randScalar(r *rand.Rand) scalar.Scalar {
	for {
		k := scalar.ModN(scalar.Scalar{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()})
		if !k.IsZero() {
			return k
		}
	}
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// basePoints returns n distinct points of the prime-order subgroup:
// P + i*Q for random P and Q of the stream. One point addition each
// keeps generation cheap next to the scalar multiplications measured.
func basePoints(seed, stream uint64, n int) []curve.Affine {
	r := newRand(seed, stream, 1<<39)
	p := curve.ScalarMult(randScalar(r), curve.Generator())
	q := curve.ScalarMult(randScalar(r), curve.Generator())
	out := make([]curve.Affine, n)
	for i := range out {
		out[i] = p.Affine()
		p = curve.Add(p, q)
	}
	return out
}

// opKind is the endpoint a serve request goes to.
type opKind uint8

const (
	opScalarMult opKind = iota
	opSign
	opVerify
	opBatch
)

var opPaths = [...]string{"/v1/scalarmult", "/v1/sign", "/v1/verify", "/v1/batch/verify"}

// batchItems is the item count of every batch-verify request.
const batchItems = 8

// forgedFrac is the share of signatures that are forged: a valid
// signature of a different message, which costs the full verification
// and must come back valid:false.
const forgedFrac = 0.05

// mix weights the endpoints of a serve workload.
type mix [4]int // indexed by opKind

// request is one generated serve request: the body sent and what the
// oracle needs to check the answer.
type request struct {
	kind opKind
	body []byte
	// scalarmult: the expected point, encoded.
	point [curve.Size]byte
	// sign: the key seed and message; the expected signature is
	// recomputed by PrivateKey.Sign when the answer is checked.
	seed [schnorrq.SeedSize]byte
	msg  []byte
	// verify and batch: the expected verdict.
	valid bool
}

// genRequests draws n requests of a stream in parallel. The endpoints
// follow the mix exactly in every block of mix-total requests, in an
// order shuffled per block, so that the share of each endpoint does not
// vary with the seed.
func genRequests(seed, stream uint64, m mix, n int) []*request {
	var pattern []opKind
	for k, w := range m {
		for j := 0; j < w; j++ {
			pattern = append(pattern, opKind(k))
		}
	}
	kinds := make([]opKind, n)
	for b := 0; b < n; b += len(pattern) {
		block := append([]opKind(nil), pattern...)
		newRand(seed, stream, 1<<38+uint64(b)).Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		copy(kinds[b:], block)
	}
	out := make([]*request, n)
	parallel(n, func(i int) { out[i] = genRequest(newRand(seed, stream, uint64(i)), kinds[i]) })
	return out
}

func genRequest(r *rand.Rand, kind opKind) *request {
	q := &request{kind: kind}
	switch kind {
	case opScalarMult:
		k := randScalar(r)
		base := curve.ScalarMult(randScalar(r), curve.Generator())
		q.point = curve.ScalarMult(k, base).Bytes()
		kb, bb := k.Bytes(), base.Bytes()
		q.body = mustJSON(serve.ScalarMultRequest{Scalar: hex.EncodeToString(kb[:]), Base: hex.EncodeToString(bb[:])})
	case opSign:
		copy(q.seed[:], randBytes(r, schnorrq.SeedSize))
		q.msg = randBytes(r, 32+r.IntN(32))
		q.body = mustJSON(serve.SignRequest{Seed: hex.EncodeToString(q.seed[:]), Msg: hex.EncodeToString(q.msg)})
	case opVerify:
		var it serve.VerifyRequest
		it, q.valid = genSigned(r)
		q.body = mustJSON(it)
	case opBatch:
		items := make([]serve.VerifyRequest, batchItems)
		q.valid = true
		for i := range items {
			var ok bool
			items[i], ok = genSigned(r)
			q.valid = q.valid && ok
		}
		q.body = mustJSON(serve.BatchVerifyRequest{Items: items})
	}
	return q
}

// genSigned draws a fresh key and message and signs it; with
// probability forgedFrac the signature is over another message.
func genSigned(r *rand.Rand) (serve.VerifyRequest, bool) {
	key := genKey(r)
	msg := randBytes(r, 32+r.IntN(32))
	signed, valid := msg, true
	if r.Float64() < forgedFrac {
		signed, valid = append([]byte{0xff}, msg...), false
	}
	sig := key.Sign(signed)
	pub := key.Public.Bytes()
	return serve.VerifyRequest{
		Pub: hex.EncodeToString(pub[:]),
		Msg: hex.EncodeToString(msg),
		Sig: hex.EncodeToString(sig[:]),
	}, valid
}

func genKey(r *rand.Rand) *schnorrq.PrivateKey {
	for {
		var seed [schnorrq.SeedSize]byte
		copy(seed[:], randBytes(r, len(seed)))
		if key, err := schnorrq.NewKeyFromSeed(seed); err == nil {
			return key
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types hold only strings
	}
	return b
}
