package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
	"repro/internal/serve"
)

// The replay passes of the traced run: a workload's own inputs go once
// through its top layer untraced, once traced, then through each lower
// layer's public entry, so that every layer gets a self time and the
// difference of the first two passes is the cost of tracing.

// replayServe replays the serve workload's low-phase inputs, one at a
// time on an idle server: pass 1 through Handler() (each request
// untraced, then traced), pass 2 through schnorrq (or the engine for a
// scalar multiplication) with the meter recording the engine calls,
// pass 3 through core for each engine call.
func replayServe(spec serveSpec) func(cfg config, lp *layerProbe) error {
	return func(cfg config, lp *layerProbe) error {
		srv, err := serve.New(serveOptions())
		if err != nil {
			return err
		}
		defer srv.Close()
		h := srv.Handler()
		n := 2 * lp.rounds
		reqs := genRequests(cfg.seed, streamLow, spec.mix, n)

		// Each request runs untraced and then traced, so that drift
		// between the two passes cancels.
		var untraced, traced int64
		top := make([]int, n)
		for i, q := range reqs {
			code, body, d := serveCall(h, opPaths[q.kind], q.body)
			untraced += d.Nanoseconds()
			lp.countAnswer(q, code, body)
			top[i] = lp.log.open(span{Parent: -1, Req: i, Pass: 1, Name: "serve"})
			code, body, _ = serveCall(h, opPaths[q.kind], q.body)
			lp.log.close(top[i])
			traced += lp.log.spans[top[i]].End - lp.log.spans[top[i]].Start
			lp.countAnswer(q, code, body)
		}

		ctx := context.Background()
		m := &meter{lp: lp, eng: lp.idle, pass: 2}
		for i, q := range reqs {
			if q.kind == opScalarMult {
				// serve calls the engine directly for a scalar multiplication.
				m.reset(top[i], i)
				if err := replayScalarMult(ctx, lp, m, q); err != nil {
					return err
				}
				continue
			}
			id := lp.log.open(span{Parent: top[i], Req: i, Pass: 2, Name: "schnorrq"})
			m.reset(id, i)
			err := replaySchnorrq(ctx, lp, m, q)
			lp.log.close(id)
			if err != nil {
				return err
			}
		}
		for j, req := range m.sms {
			parent := lp.log.spans[m.ids[j]]
			id := lp.log.open(span{Parent: parent.ID, Req: parent.Req, Pass: 3, Name: "core"})
			var got curve.Affine
			var st rtl.Stats
			base := curve.FromAffine(req.Base)
			if req.Class == engine.ClassFixedBase {
				got, st, err = lp.exec.ScalarMultFixedBase(req.K)
				base = curve.Generator()
			} else {
				got, st, err = lp.exec.ScalarMultPoint(req.K, req.Base)
			}
			lp.log.close(id)
			lp.log.spans[id].Muls = st.MulIssues
			if err != nil {
				return fmt.Errorf("core replay: %w", err)
			}
			lp.checkPoint("core replay", j, got, curve.ScalarMult(req.K, base).Affine())
		}
		lp.selfReport(n, untraced, traced, lp.rep.Metrics["fp2.mul_traced_ns"].Value)
		return nil
	}
}

// replayScalarMult runs a scalar multiplication request on the meter,
// as serve does, and checks the answer.
func replayScalarMult(ctx context.Context, lp *layerProbe, m *meter, q *request) error {
	var r serve.ScalarMultRequest
	if err := json.Unmarshal(q.body, &r); err != nil {
		return err
	}
	kb, err1 := hex.DecodeString(r.Scalar)
	bb, err2 := hex.DecodeString(r.Base)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("generated scalar multiplication is not hex")
	}
	k, err := scalar.FromBytes(kb)
	if err != nil {
		return err
	}
	base, err := curve.FromBytes(bb)
	if err != nil {
		return err
	}
	got, err := m.ScalarMultAffine(ctx, k, base.Affine())
	if err != nil {
		return err
	}
	lp.rep.attempt(1)
	if curve.FromAffine(got).Bytes() != q.point {
		lp.rep.mismatch("engine replay of a scalar multiplication differs from the oracle")
	}
	return nil
}

// replaySchnorrq runs one sign, verify or batch request through the
// scheme on the meter and checks the answer.
func replaySchnorrq(ctx context.Context, lp *layerProbe, m *meter, q *request) error {
	lp.rep.attempt(1)
	switch q.kind {
	case opSign:
		key, err := schnorrq.NewKeyFromSeed(q.seed)
		if err != nil {
			return err
		}
		sig, err := key.SignWith(ctx, m, q.msg)
		if err != nil {
			return err
		}
		if sig != key.Sign(q.msg) {
			lp.rep.mismatch("schnorrq replay: SignWith differs from Sign")
		}
	case opVerify:
		var v serve.VerifyRequest
		if err := json.Unmarshal(q.body, &v); err != nil {
			return err
		}
		s, err := decodeSig(v, q.valid)
		if err != nil {
			return err
		}
		ok, err := schnorrq.VerifyWith(ctx, m, s.pub, s.msg, s.sig)
		if err != nil {
			return err
		}
		if ok != q.valid {
			lp.rep.mismatch("schnorrq replay: verdict %v, want %v", ok, q.valid)
		}
	case opBatch:
		var b serve.BatchVerifyRequest
		if err := json.Unmarshal(q.body, &b); err != nil {
			return err
		}
		items := make([]schnorrq.BatchItem, len(b.Items))
		for i, v := range b.Items {
			s, err := decodeSig(v, true)
			if err != nil {
				return err
			}
			items[i] = schnorrq.BatchItem{Pub: s.pub, Msg: s.msg, Sig: s.sig}
		}
		ok, err := schnorrq.BatchVerifyWith(ctx, rand.Reader, m, items)
		if err != nil {
			return err
		}
		if ok != q.valid {
			lp.rep.mismatch("schnorrq replay: batch verdict %v, want %v", ok, q.valid)
		}
	}
	return nil
}

// replayOffline replays offline-batch inputs on a one-worker engine with
// full lanes: pass 1 through SubmitBatch (each batch untraced, then
// traced), pass 3 each lane row through core's lane path.
func replayOffline(cfg config, lp *layerProbe) error {
	const batch = 4 * laneWidth
	one := engine.NewWithProcessor(lp.proc, engine.Options{Workers: 1, LaneWidth: laneWidth, QueueDepth: batch})
	defer one.Close()
	ctx := context.Background()
	n := lp.rounds
	in := offlineInputs(cfg.seed, streamOfflineMain, n*batch)
	reqs := make([]engine.Request, len(in))
	for i := range in {
		reqs[i] = in[i].req
	}
	// Each batch runs untraced and then traced, so that drift between
	// the two passes cancels.
	var untraced, traced int64
	top := make([]int, n)
	for b := 0; b < n; b++ {
		batchReqs := reqs[b*batch : (b+1)*batch]
		t0 := time.Now()
		_, err := one.SubmitBatch(ctx, batchReqs)
		untraced += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		top[b] = lp.log.open(span{Parent: -1, Req: b, Pass: 1, Name: "engine"})
		res, err := one.SubmitBatch(ctx, batchReqs)
		lp.log.close(top[b])
		traced += lp.log.spans[top[b]].End - lp.log.spans[top[b]].Start
		if err != nil {
			return err
		}
		for i, r := range res {
			lp.noteResult(r)
			in[b*batch+i].point = r.Point
		}
	}
	checkSMs(lp.rep, in)
	lp.rep.attempt(len(in))

	outs := make([]curve.Affine, laneWidth)
	errs := make([]error, laneWidth)
	ks := make([]scalar.Scalar, laneWidth)
	bases := make([]curve.Affine, laneWidth)
	for b := 0; b < n; b++ {
		for row := 0; row < batch; row += laneWidth {
			lo := b*batch + row
			for l := range ks {
				ks[l], bases[l] = reqs[lo+l].K, reqs[lo+l].Base
			}
			id := lp.log.open(span{Parent: top[b], Req: b, Pass: 3, Name: "core"})
			st, err := lp.exec.ScalarMultLanes(ks, bases, outs, errs)
			lp.log.close(id)
			lp.log.spans[id].Muls = st.MulIssues * laneWidth
			if err != nil {
				return err
			}
			for l := range outs {
				if errs[l] != nil {
					lp.rep.attempt(1)
					lp.rep.errored++
					continue
				}
				want := in[lo+l].point
				lp.checkPoint("core lane replay", lo+l, outs[l], want)
			}
		}
	}
	lp.selfReport(n*batch, untraced, traced, lp.rep.Metrics["fp2.mul_rows_ns"].Value)
	return nil
}

// selfReport adds each layer's self time per request, with the GF(p^2)
// multiplications core spans issued charged to fp2 at mulNs each, and
// the tracing overhead per request.
func (lp *layerProbe) selfReport(n int, untraced, traced int64, mulNs float64) {
	self := lp.log.selfTimes()
	fp2ns := 0.0
	for _, s := range lp.log.spans {
		if s.Name == "core" {
			fp2ns += float64(s.Muls) * mulNs
		}
	}
	self["core"] -= fp2ns
	self["fp2"] = fp2ns
	for layer, ns := range self {
		lp.rep.add("self_us."+layer, ns/float64(n)/1e3, "us", n)
	}
	lp.rep.add("trace.overhead_us", float64(traced-untraced)/float64(n)/1e3, "us", n)
}
