package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/fp2"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
	"repro/internal/serve"
)

// The traced run times the calls into each layer's public functions
// from outside: spans are recorded by the benchmark around those calls,
// never inside the program, and nothing parses the engine's own metric
// or span names. Lane fill and queue wait inside the engine are not
// visible from here.

// span is one timed call into a layer. Parent is the ID of the span that
// caused it, or -1; a parent recorded in another pass (the same request
// replayed through the layer above) is covered by the sum of its
// children, one recorded in the same pass by their union.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Muls is the GF(p^2) multiplications a core span issued.
	Muls int `json:"muls,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) now() int64 { return time.Since(l.t0).Nanoseconds() }

// open records a span starting now; close ends it.
func (l *spanLog) open(s span) int {
	s.Start = l.now()
	return l.add(s)
}

func (l *spanLog) close(id int) {
	end := l.now()
	l.mu.Lock()
	l.spans[id].End = end
	l.mu.Unlock()
}

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans)
	l.spans = append(l.spans, s)
	return s.ID
}

// selfTimes returns each layer's self time in ns summed over its spans:
// a span's duration minus the part its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range l.spans {
		self[s.Name] += float64(s.End-s.Start) - covered(s, children[s.ID])
	}
	return self
}

func covered(p span, ch []span) float64 {
	if len(ch) == 0 {
		return 0
	}
	if ch[0].Pass != p.Pass {
		sum := 0.0
		for _, c := range ch {
			sum += float64(c.End - c.Start)
		}
		return sum
	}
	// Union of the children's intervals clipped to the parent's.
	iv := make([][2]int64, 0, len(ch))
	for _, c := range ch {
		iv = append(iv, [2]int64{max(c.Start, p.Start), min(c.End, p.End)})
	}
	for i := 1; i < len(iv); i++ { // insertion sort: a few children
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var sum, end int64
	end = iv[0][0]
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		if v[0] > end {
			end = v[0]
		}
		sum += v[1] - end
		end = v[1]
	}
	return float64(sum)
}

// layerProbe holds what the traced run measures with.
type layerProbe struct {
	rep    *report
	seed   uint64
	rounds int
	proc   *core.Processor
	exec   *core.Executor
	// idle is an engine with a serve shard's options, used for single
	// requests on an idle engine.
	idle *engine.Engine
	log  *spanLog

	mu      sync.Mutex
	results []engine.Result // every engine result, for attempts and fallback
}

func (lp *layerProbe) noteResult(r engine.Result) {
	lp.mu.Lock()
	lp.results = append(lp.results, r)
	lp.mu.Unlock()
}

// timeEach runs f once per round and returns the median of its time
// in ns divided by per.
func (lp *layerProbe) timeEach(per int, f func(round int)) float64 {
	ts := make([]float64, lp.rounds)
	for r := range ts {
		t0 := time.Now()
		f(r)
		ts[r] = float64(time.Since(t0)) / float64(per)
	}
	return median(ts)
}

// meter is the bench-side schnorrq.ScalarMulter: it submits every
// scalar multiplication to an engine, sums the results, and records an
// engine span under the current parent span.
type meter struct {
	lp     *layerProbe
	eng    *engine.Engine
	pass   int
	mu     sync.Mutex
	parent int
	req    int
	calls  int
	cycles int64
	// sms are the submitted requests, in span order, for the core pass.
	sms []engine.Request
	ids []int
}

func (m *meter) ScalarMultAffine(ctx context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error) {
	return m.submit(ctx, engine.Request{K: k, Base: base})
}

func (m *meter) ScalarMultFixedBase(ctx context.Context, k scalar.Scalar) (curve.Affine, error) {
	return m.submit(ctx, engine.Request{K: k, Class: engine.ClassFixedBase})
}

func (m *meter) submit(ctx context.Context, req engine.Request) (curve.Affine, error) {
	m.mu.Lock()
	parent, id := m.parent, m.req
	m.mu.Unlock()
	start := m.lp.log.now()
	r, err := m.eng.Submit(ctx, req)
	end := m.lp.log.now()
	m.lp.noteResult(r)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	m.cycles += int64(r.Stats.Cycles)
	if m.pass > 0 {
		sid := m.lp.log.add(span{Parent: parent, Req: id, Pass: m.pass, Name: "engine", Start: start, End: end})
		m.sms = append(m.sms, req)
		m.ids = append(m.ids, sid)
	}
	return r.Point, err
}

// reset zeroes the counters and sets the parent of the next spans.
func (m *meter) reset(parent, req int) {
	m.mu.Lock()
	m.parent, m.req, m.calls, m.cycles = parent, req, 0, 0
	m.mu.Unlock()
}

// meterOptions are a serve shard's engine options with a queue that
// holds the 2n+1 concurrent terms of a few batch verifications.
func meterOptions() engine.Options {
	opts := serveOptions().Engine
	opts.QueueDepth = 4 * (2*batchItems + 1)
	return opts
}

func traceLayers(cfg config, w *workload, rep *report, st setupStats) error {
	rep.add("sched.trace_s", st.trace, "s", cfg.setupRuns)
	rep.add("sched.solve_s", st.solve, "s", cfg.setupRuns)
	rep.add("sched.compile_s", st.compile, "s", cfg.setupRuns)
	p, err := serveProcessor()
	if err != nil {
		return err
	}
	rep.proc = p
	idle := engine.NewWithProcessor(p, meterOptions())
	defer idle.Close()
	lp := &layerProbe{
		rep: rep, seed: cfg.seed, rounds: max(5, int(cfg.seconds)),
		proc: p, exec: p.NewExecutor(), idle: idle,
		log: &spanLog{t0: time.Now()},
	}
	probeFp2(lp)
	probeCore(lp)
	if err := probeEngine(lp); err != nil {
		return err
	}
	if err := probeSchnorrq(lp); err != nil {
		return err
	}
	if err := probeServe(lp); err != nil {
		return err
	}
	if err := w.replay(cfg, lp); err != nil {
		return err
	}
	attempts, software := 0, 0
	for _, r := range lp.results {
		attempts += r.Attempts
		if r.Backend == engine.BackendSoftware {
			software++
		}
	}
	n := len(lp.results)
	rep.add("engine.attempts_per_sm", float64(attempts)/float64(n), "count", n)
	rep.add("engine.software_frac", float64(software)/float64(n), "ratio", n)
	return writeSpans(cfg.spansPath, lp.log)
}

func writeSpans(path string, l *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probeFp2 times the two GF(p^2) multiplier kernels on seeded operands:
// MulAlg2, which materializes the pipeline trace (the singleton
// Machine path), and the MulAlg2Rows row kernel (the lane machine).
func probeFp2(lp *layerProbe) {
	const n, reps = 64, 64
	pts := basePoints(lp.seed, streamLayers, n)
	a, b, dst := make([]fp2.Element, n), make([]fp2.Element, n), make([]fp2.Element, n)
	for i, p := range pts {
		a[i], b[i] = p.X, p.Y
	}
	var sink fp2.Element
	lp.rep.add("fp2.mul_traced_ns", lp.timeEach(n*reps, func(int) {
		for r := 0; r < reps; r++ {
			for i := range a {
				sink = fp2.MulAlg2(a[i], b[i])
			}
		}
	}), "ns", lp.rounds*n*reps)
	lp.rep.add("fp2.mul_rows_ns", lp.timeEach(n*reps, func(int) {
		for r := 0; r < reps; r++ {
			fp2.MulAlg2Rows(dst, a, b)
		}
	}), "ns", lp.rounds*n*reps)
	lp.rep.attempt(2 * n)
	for i := range a {
		want := fp2.Mul(a[i], b[i])
		if !fp2.MulAlg2(a[i], b[i]).Equal(want) || !dst[i].Equal(want) {
			lp.rep.mismatch("fp2 product %d differs from fp2.Mul", i)
		}
	}
	_ = sink
}

// coreInputs are the seeded scalar multiplications the core and engine
// probes run, with their oracle answers.
type coreInputs struct {
	ks     []scalar.Scalar
	bases  []curve.Affine
	want   []curve.Affine // [k]base
	wantFB []curve.Affine // [k]G
}

const coreN = 8

func newCoreInputs(seed uint64) coreInputs {
	c := coreInputs{bases: basePoints(seed, streamLayers+1, coreN)}
	for i := 0; i < coreN; i++ {
		k := randScalar(newRand(seed, streamLayers+1, uint64(i)))
		c.ks = append(c.ks, k)
		c.want = append(c.want, curve.ScalarMult(k, curve.FromAffine(c.bases[i])).Affine())
		c.wantFB = append(c.wantFB, curve.ScalarMult(k, curve.Generator()).Affine())
	}
	return c
}

func (lp *layerProbe) checkPoint(what string, i int, got, want curve.Affine) {
	lp.rep.attempt(1)
	if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
		lp.rep.mismatch("%s %d differs from the oracle", what, i)
	}
}

// probeCore times core.Executor per scalar multiplication: the
// single-lane Machine path and the lockstep lane path at several widths,
// for both programs, and records each program's exact modeled figures.
func probeCore(lp *layerProbe) {
	c := newCoreInputs(lp.seed)
	e := lp.exec
	out, st, err := e.ScalarMultPoint(c.ks[0], c.bases[0])
	if err != nil {
		lp.rep.errored++
	}
	lp.checkPoint("core vb", 0, out, c.want[0])
	lp.rep.add("core.cycles.variable_base", float64(st.Cycles), "cycles", 1)
	lp.rep.add("core.stall_cycles.variable_base", float64(st.StallCycles), "cycles", 1)
	lp.rep.add("core.mul_util.variable_base", st.MulUtilization, "ratio", 1)
	out, st, err = e.ScalarMultFixedBase(c.ks[0])
	if err != nil {
		lp.rep.errored++
	}
	lp.checkPoint("core fb", 0, out, c.wantFB[0])
	lp.rep.add("core.cycles.fixed_base", float64(st.Cycles), "cycles", 1)
	lp.rep.add("core.stall_cycles.fixed_base", float64(st.StallCycles), "cycles", 1)
	lp.rep.add("core.mul_util.fixed_base", st.MulUtilization, "ratio", 1)

	outs := make([]curve.Affine, coreN)
	errs := make([]error, coreN)
	lp.rep.add("core.ns_per_sm.vb.single", lp.timeEach(coreN, func(int) {
		for i := range c.ks {
			outs[i], _, errs[i] = e.ScalarMultPoint(c.ks[i], c.bases[i])
		}
	}), "ns", lp.rounds*coreN)
	lp.checkAll("core vb.single", outs, errs, c.want)
	lanes := func(w int, fb bool) float64 {
		ns := lp.timeEach(coreN, func(int) {
			for i := 0; i < coreN; i += w {
				if fb {
					_, err = e.ScalarMultFixedBaseLanes(c.ks[i:i+w], outs[i:i+w], errs[i:i+w])
				} else {
					_, err = e.ScalarMultLanes(c.ks[i:i+w], c.bases[i:i+w], outs[i:i+w], errs[i:i+w])
				}
				if err != nil {
					errs[i] = err
				}
			}
		})
		want := c.want
		if fb {
			want = c.wantFB
		}
		lp.checkAll(fmt.Sprintf("core lanes w%d fb=%v", w, fb), outs, errs, want)
		return ns
	}
	lp.rep.add("core.ns_per_sm.vb.w1", lanes(1, false), "ns", lp.rounds*coreN)
	lp.rep.add("core.ns_per_sm.vb.w4", lanes(4, false), "ns", lp.rounds*coreN)
	lp.rep.add("core.ns_per_sm.vb.w8", lanes(8, false), "ns", lp.rounds*coreN)
	lp.rep.add("core.ns_per_sm.fb.w1", lanes(1, true), "ns", lp.rounds*coreN)
	lp.rep.add("core.ns_per_sm.fb.w4", lanes(4, true), "ns", lp.rounds*coreN)
}

func (lp *layerProbe) checkAll(what string, outs []curve.Affine, errs []error, want []curve.Affine) {
	for i := range outs {
		if errs[i] != nil {
			lp.rep.attempt(1)
			lp.rep.errored++
			continue
		}
		lp.checkPoint(what, i, outs[i], want[i])
	}
}

// probeEngine times the engine around core: per-SM overhead on a
// one-worker engine with full lanes (against core's lane path at the
// same width), and one request at a time on an idle serve-shard engine,
// which includes the wait for lane-mates that never come.
func probeEngine(lp *layerProbe) error {
	c := newCoreInputs(lp.seed)
	one := engine.NewWithProcessor(lp.proc, engine.Options{Workers: 1, LaneWidth: laneWidth, QueueDepth: 2 * coreN})
	defer one.Close()
	ctx := context.Background()
	reqs := make([]engine.Request, 2*coreN)
	for i := range reqs {
		reqs[i] = engine.Request{K: c.ks[i%coreN], Base: c.bases[i%coreN]}
	}
	// Engine and core alternate round by round on the same inputs, so
	// that drift of the host cancels in the difference.
	outs := make([]curve.Affine, laneWidth)
	errs := make([]error, laneWidth)
	engNs := make([]float64, lp.rounds)
	coreNs := make([]float64, lp.rounds)
	for r := 0; r < lp.rounds; r++ {
		t0 := time.Now()
		res, err := one.SubmitBatch(ctx, reqs)
		engNs[r] = float64(time.Since(t0)) / float64(len(reqs))
		if err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
		for i, res := range res {
			lp.noteResult(res)
			lp.checkPoint("engine batch", i, res.Point, c.want[i%coreN])
		}
		t0 = time.Now()
		for i := 0; i < len(reqs); i += laneWidth {
			j := i % coreN
			if _, err := lp.exec.ScalarMultLanes(c.ks[j:j+laneWidth], c.bases[j:j+laneWidth], outs, errs); err != nil {
				return err
			}
		}
		coreNs[r] = float64(time.Since(t0)) / float64(len(reqs))
		lp.checkAll("core lanes", outs, errs, c.want[coreN-laneWidth:])
	}
	lp.rep.add("engine.overhead_ns_per_sm", median(engNs)-median(coreNs), "ns", lp.rounds*len(reqs))

	idle := func(class engine.Class) (float64, error) {
		ms := make([]float64, 0, lp.rounds*coreN)
		for r := 0; r < lp.rounds; r++ {
			for i := range c.ks {
				t0 := time.Now()
				res, err := lp.idle.Submit(ctx, engine.Request{K: c.ks[i], Base: c.bases[i], Class: class})
				ms = append(ms, float64(time.Since(t0))/1e6)
				if err != nil {
					return 0, err
				}
				lp.noteResult(res)
				want := c.want[i]
				if class == engine.ClassFixedBase {
					want = c.wantFB[i]
				}
				lp.checkPoint("engine idle "+class.String(), i, res.Point, want)
			}
		}
		return median(ms), nil
	}
	vb, err := idle(engine.ClassVariableBase)
	if err != nil {
		return err
	}
	fb, err := idle(engine.ClassFixedBase)
	if err != nil {
		return err
	}
	lp.rep.add("engine.idle_submit_ms.vb", vb, "ms", lp.rounds*coreN)
	lp.rep.add("engine.idle_submit_ms.fb", fb, "ms", lp.rounds*coreN)
	return nil
}

// sigInput is one decoded verify request.
type sigInput struct {
	pub      *schnorrq.PublicKey
	msg, sig []byte
	valid    bool
}

func decodeSig(v serve.VerifyRequest, valid bool) (sigInput, error) {
	pb, err1 := hex.DecodeString(v.Pub)
	msg, err2 := hex.DecodeString(v.Msg)
	sig, err3 := hex.DecodeString(v.Sig)
	if err1 != nil || err2 != nil || err3 != nil {
		return sigInput{}, fmt.Errorf("generated verify request is not hex")
	}
	pub, err := schnorrq.PublicKeyFromBytes(pb)
	return sigInput{pub: pub, msg: msg, sig: sig, valid: valid}, err
}

// probeSchnorrq times the scheme's calls on an idle engine through the
// meter, which also counts the engine calls and modeled cycles behind
// each signature and verification.
func probeSchnorrq(lp *layerProbe) error {
	ctx := context.Background()
	n := lp.rounds * 2
	keys := make([]*schnorrq.PrivateKey, n)
	seeds := make([][schnorrq.SeedSize]byte, n)
	for i := range seeds {
		copy(seeds[i][:], randBytes(newRand(lp.seed, streamLayers+2, uint64(i)), schnorrq.SeedSize))
	}
	us := make([]float64, n)
	for i := range seeds {
		t0 := time.Now()
		k, err := schnorrq.NewKeyFromSeed(seeds[i])
		us[i] = float64(time.Since(t0)) / 1e3
		if err != nil {
			return err
		}
		keys[i] = k
	}
	lp.rep.add("schnorrq.derive_key_us", median(us), "us", n)

	m := &meter{lp: lp, eng: lp.idle}
	ms := make([]float64, n)
	for i, k := range keys {
		msg := randBytes(newRand(lp.seed, streamLayers+3, uint64(i)), 48)
		t0 := time.Now()
		sig, err := k.SignWith(ctx, m, msg)
		ms[i] = float64(time.Since(t0)) / 1e6
		if err != nil {
			return err
		}
		lp.rep.attempt(1)
		if sig != k.Sign(msg) {
			lp.rep.mismatch("schnorrq SignWith %d differs from Sign", i)
		}
	}
	lp.rep.add("schnorrq.sign_ms", median(ms), "ms", n)
	lp.rep.add("schnorrq.datapath_cycles_per_sign", float64(m.cycles)/float64(n), "cycles", n)

	sigs := make([]sigInput, batchItems*lp.rounds)
	for i := range sigs {
		v, valid := genSigned(newRand(lp.seed, streamLayers+4, uint64(i)))
		var err error
		if sigs[i], err = decodeSig(v, valid); err != nil {
			return err
		}
	}
	m.reset(-1, 0)
	for i, s := range sigs[:n] {
		t0 := time.Now()
		ok, err := schnorrq.VerifyWith(ctx, m, s.pub, s.msg, s.sig)
		ms[i] = float64(time.Since(t0)) / 1e6
		if err != nil {
			return err
		}
		lp.rep.attempt(1)
		if ok != s.valid {
			lp.rep.mismatch("schnorrq VerifyWith %d: verdict %v, want %v", i, ok, s.valid)
		}
	}
	lp.rep.add("schnorrq.verify_ms", median(ms), "ms", n)
	lp.rep.add("schnorrq.engine_calls_per_verify", float64(m.calls)/float64(n), "count", n)
	lp.rep.add("schnorrq.datapath_cycles_per_verify", float64(m.cycles)/float64(n), "cycles", n)

	batches := lp.rounds
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		items := make([]schnorrq.BatchItem, batchItems)
		want := true
		for i := range items {
			s := sigs[b*batchItems+i]
			items[i] = schnorrq.BatchItem{Pub: s.pub, Msg: s.msg, Sig: s.sig}
			want = want && s.valid
		}
		t0 := time.Now()
		ok, err := schnorrq.BatchVerifyWith(ctx, rand.Reader, m, items)
		per = append(per, float64(time.Since(t0))/1e6/batchItems)
		if err != nil {
			return err
		}
		lp.rep.attempt(1)
		if ok != want {
			lp.rep.mismatch("schnorrq BatchVerifyWith %d: verdict %v, want %v", b, ok, want)
		}
	}
	lp.rep.add("schnorrq.batch_verify_ms_per_item", median(per), "ms", len(per))
	return nil
}

// probeServe times the handler around the scheme: its overhead over
// VerifyWith for the same input at idle, a malformed request's 400, and
// the 503 a sign request gets when a burst overloads admission.
func probeServe(lp *layerProbe) error {
	srv, err := serve.New(serveOptions())
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	ctx := context.Background()
	n := lp.rounds * 2
	reqs := genRequests(lp.seed, streamLayers+5, mix{opVerify: 1}, n)
	handler := make([]float64, n)
	scheme := make([]float64, n)
	for i, q := range reqs {
		code, body, d := serveCall(h, opPaths[q.kind], q.body)
		handler[i] = float64(d) / 1e3
		lp.countAnswer(q, code, body)
		var v serve.VerifyRequest
		if err := json.Unmarshal(q.body, &v); err != nil {
			return err
		}
		s, err := decodeSig(v, q.valid)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ok, err := schnorrq.VerifyWith(ctx, lp.idle, s.pub, s.msg, s.sig)
		scheme[i] = float64(time.Since(t0)) / 1e3
		if err != nil {
			return err
		}
		lp.rep.attempt(1)
		if ok != q.valid {
			lp.rep.mismatch("schnorrq VerifyWith: verdict %v, want %v", ok, q.valid)
		}
	}
	lp.rep.add("serve.handler_overhead_us", median(handler)-median(scheme), "us", n)

	bad := []byte(`{"pub":"zz","msg":"","sig":""}`)
	us := make([]float64, 0, 10*n)
	for i := 0; i < 10*n; i++ {
		code, _, d := serveCall(h, "/v1/verify", bad)
		us = append(us, float64(d)/1e3)
		lp.rep.attempt(1)
		if code != http.StatusBadRequest {
			lp.rep.mismatch("malformed verify answered %d, want 400", code)
		}
	}
	lp.rep.add("serve.reject_us", median(us), "us", len(us))

	// The burst issues every sign request at once, far beyond what
	// admission holds, so some are shed however fast the service is.
	const burst = 4096
	signs := genRequests(lp.seed, streamBurst, mix{opSign: 1}, burst)
	codes := make([]int, burst)
	bodies := make([][]byte, burst)
	durs := make([]time.Duration, burst)
	var wg sync.WaitGroup
	for i, q := range signs {
		wg.Add(1)
		go func(i int, q *request) {
			defer wg.Done()
			codes[i], bodies[i], durs[i] = serveCall(h, opPaths[q.kind], q.body)
		}(i, q)
	}
	wg.Wait()
	var shed []float64
	for i, q := range signs {
		if codes[i] == http.StatusServiceUnavailable {
			shed = append(shed, float64(durs[i])/1e3)
		}
		lp.countAnswer(q, codes[i], bodies[i])
	}
	shedUS := 0.0
	if len(shed) > 0 {
		shedUS = median(shed)
	}
	lp.rep.add("serve.shed_us.sign", shedUS, "us", len(shed))
	lp.rep.add("serve.shed_frac.over", float64(len(shed))/burst, "ratio", burst)
	return nil
}

// countAnswer checks one serve answer like the untraced run does.
func (lp *layerProbe) countAnswer(q *request, code int, body []byte) {
	checkAnswers(lp.rep, []*request{q}, []outcome{{status: code, body: body}})
}
