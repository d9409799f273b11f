package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schnorrq"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// The serve-* workloads issue requests in process into
// serve.Server.Handler(), one goroutine per arrival, with no sockets: at
// most nproc HTTP/1.1 connections would allow only that many requests
// in flight, turning the open loop into a closed one and starving lane
// coalescing. Arrivals are evenly spaced at the phase's offered rate;
// latency is timed from each request's due time, so a stalled generator
// shows in the latency, and the generator's own lateness is reported.
type serveSpec struct {
	mix mix
	// Offered rates in requests per second: low (lanes rarely fill),
	// mid (about half of saturation) and over (at least twice
	// saturation). The capacity search bisects between mid and over.
	low, mid, over float64
}

var (
	signSpec   = serveSpec{mix: mix{opScalarMult: 1, opSign: 9}, low: 200, mid: 2500, over: 30000}
	verifySpec = serveSpec{mix: mix{opSign: 1, opVerify: 7, opBatch: 2}, low: 200, mid: 600, over: 6000}
)

// Shares of --seconds given to each phase; the search's share is split
// evenly over its steps. The search has the largest share because
// capacity_rps rests on p90 near the knee, the noisiest figure gated.
const (
	lowShare    = 0.15
	midShare    = 0.15
	searchShare = 0.60
	overShare   = 0.10
	searchSteps = 6
	// warmRequests are answered one at a time before timing starts.
	warmRequests = 40
)

// The capacity criterion: the highest offered rate whose p90 is within
// sloP90, with at most maxMissFrac refused or failed, and with the
// generator on time (90% of arrivals issued within maxLateP90, beyond
// which the offered rate was not really offered). The lateness limit is
// on p90, like the latency limit: the host stalls every process for
// 10-30 ms at times, which put the generator's p99 over the limit at
// 200-700 rps, far below capacity.
const (
	sloP90      = 20 * time.Millisecond
	maxMissFrac = 0.01
	maxLateP90  = sloP90 / 2
	// maxOutstanding bounds the goroutines of one phase; an arrival due
	// while that many requests are unanswered is counted as refused
	// (the client gave up) instead of being issued.
	maxOutstanding = 1024
)

// maxRepeats bounds the failing phases a run measures again.
const maxRepeats = 2

// serveOptions are fourq-serve's defaults: 2 shards, lane width 4, the
// zero core.Config (list schedule; serve.New adds the fixed-base comb).
func serveOptions() serve.Options {
	return serve.Options{Shards: 2, Engine: engine.Options{LaneWidth: laneWidth}}
}

func setupServe(rec *telemetry.Recorder) (func(), error) {
	opts := serveOptions()
	opts.Config.Telemetry = rec
	s, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	return s.Close, nil
}

// serveProcessor is the processor serve.New built (a cache hit).
func serveProcessor() (*core.Processor, error) {
	return engine.CachedProcessor(core.Config{FixedBase: true})
}

// outcome is the answer to one serve request.
type outcome struct {
	status int
	body   []byte
	lat    time.Duration // from due time to answer
}

func issue(h http.Handler, q *request, due time.Time) outcome {
	code, body, _ := serveCall(h, opPaths[q.kind], q.body)
	return outcome{status: code, body: body, lat: time.Since(due)}
}

// serveCall makes one in-process request and times its ServeHTTP.
func serveCall(h http.Handler, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

// openLoop issues reqs at rate per second, each from its own goroutine
// at its due time, and waits for every answer. late[i] is how long after
// its due time request i was issued; answered is the time from the
// first due time to the last answer.
func openLoop(h http.Handler, reqs []*request, rate float64) (outs []outcome, late []time.Duration, window, answered time.Duration) {
	outs = make([]outcome, len(reqs))
	late = make([]time.Duration, len(reqs))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	interval := float64(time.Second) / rate
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			outs[i] = outcome{status: http.StatusServiceUnavailable, lat: time.Since(due)}
			continue
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			outs[i] = issue(h, reqs[i], due)
			<-sem
		}(i, due)
	}
	// The window runs to the last arrival's due time or, when the
	// generator fell behind, to when it issued the last arrival.
	window = max(time.Since(start), time.Duration(float64(len(reqs))*interval))
	wg.Wait()
	return outs, late, window, time.Since(start)
}

// phaseRun is one executed phase: its inputs and their answers.
type phaseRun struct {
	phase
	reqs []*request
	outs []outcome
}

func runPhase(h http.Handler, name string, reqs []*request, rate float64) *phaseRun {
	n := len(reqs)
	outs, late, window, answered := openLoop(h, reqs, rate)
	p := &phaseRun{phase: phase{Name: name, Rate: rate, Sent: n, Window: window.Seconds(), Answered: answered.Seconds()}, reqs: reqs, outs: outs}
	lat := make([]float64, n)
	for i, o := range outs {
		switch o.status {
		case http.StatusOK:
			p.OK++
			lat[i] = float64(o.lat) / 1e6
		case http.StatusServiceUnavailable:
			p.Refused++
			lat[i] = math.Inf(1) // a refused request misses every limit
		default:
			p.Errors++
			lat[i] = math.Inf(1)
		}
	}
	p.P50ms, p.P90ms = windowQuantile(lat, 0.5), windowQuantile(lat, 0.9)
	p.P99ms = finite(quantile(sortedCopy(lat), 0.99))
	lf := make([]float64, n)
	for i, l := range late {
		lf[i] = float64(l) / 1e6
	}
	ls := sortedCopy(lf)
	p.LateP90ms, p.LateP99ms, p.LateMaxms = quantile(ls, 0.9), quantile(ls, 0.99), quantile(ls, 1)
	p.Pass = p.P90ms <= float64(sloP90)/1e6 &&
		float64(p.Refused+p.Errors) <= maxMissFrac*float64(n) &&
		p.LateP90ms <= float64(maxLateP90)/1e6
	return p
}

// subWindows is how many consecutive slices of a phase its p50 and p90
// are the median over, so that a short stall of the host moves one
// slice and not the reported figure.
const subWindows = 5

// windowQuantile is the median over the phase's sub-windows of the
// q-quantile of each.
func windowQuantile(lat []float64, q float64) float64 {
	per := make([]float64, 0, subWindows)
	for w := 0; w < subWindows; w++ {
		slice := lat[w*len(lat)/subWindows : (w+1)*len(lat)/subWindows]
		if len(slice) > 0 {
			per = append(per, quantile(sortedCopy(slice), q))
		}
	}
	return finite(median(per))
}

// latencyCeilMs stands for the latency of a refused or failed request
// when a percentile lands on one.
const latencyCeilMs = 60000

func finite(ms float64) float64 { return math.Min(ms, latencyCeilMs) }

func runServe(cfg config, rep *report, spec serveSpec) error {
	srv, err := serve.New(serveOptions())
	if err != nil {
		return err
	}
	defer srv.Close()
	if rep.proc, err = serveProcessor(); err != nil {
		return err
	}
	t := target{handler: srv.Handler()}
	if cfg.wrap != nil {
		t = cfg.wrap(t)
	}
	sec := func(share float64) time.Duration { return time.Duration(cfg.seconds * share * float64(time.Second)) }
	dLow, dMid, dStep, dOver := sec(lowShare), sec(midShare), sec(searchShare/searchSteps), sec(overShare)

	for _, q := range genRequests(cfg.seed, streamServeWarm, spec.mix, warmRequests) {
		o := issue(t.handler, q, time.Now())
		checkAnswers(rep, []*request{q}, []outcome{o})
	}
	// Each phase's inputs are generated before the phase starts, from
	// the phase's own stream, so the search's later steps draw only as
	// many as the rate they run at needs. A collection before the phase
	// gives every phase the same start; answers are checked after it.
	phase := func(name string, stream uint64, rate float64, d time.Duration) *phaseRun {
		reqs := genRequests(cfg.seed, stream, spec.mix, int(math.Ceil(rate*d.Seconds())))
		runtime.GC()
		p := runPhase(t.handler, name, reqs, rate)
		checkAnswers(rep, p.reqs, p.outs)
		for i := range p.outs {
			p.outs[i].body = nil // checked; only the status is used from here on
		}
		rep.Phases = append(rep.Phases, p.phase)
		return p
	}
	// A stall of the host can fail a phase that would pass, and so does
	// the first step above mid in most runs, even at 70% of capacity
	// (a short phase at the over rate before low did not prevent it).
	// One wrong step sends a bisection far off, so a failing mid or search
	// step is measured once more on fresh inputs, up to maxRepeats times
	// in a run, and counts as passed if the repeat passes.
	repeats := 0
	recheck := func(p *phaseRun, stream uint64) *phaseRun {
		if p.Pass || repeats == maxRepeats {
			return p
		}
		repeats++
		return phase(p.Name, stream+repeatStream, p.Rate, dStep)
	}
	low := phase("low", streamLow, spec.low, dLow)
	mid := phase("mid", streamMid, spec.mid, dMid)
	// The search bisects between mid and over when mid meets the limits,
	// and between low and mid when it does not, so that a service that no
	// longer holds mid reports the lower capacity it has. top is the
	// highest-rate phase that met the limits.
	var top *phaseRun
	lo, hi := spec.low, spec.mid
	if m := recheck(mid, streamMid); m.Pass {
		top, lo, hi = m, spec.mid, spec.over
	} else if low.Pass {
		top = low
	}
	for i := 0; i < searchSteps; i++ {
		r := math.Sqrt(lo * hi)
		stream := streamSearch + uint64(i)
		if p := recheck(phase(fmt.Sprintf("search%d", i+1), stream, r, dStep), stream); p.Pass {
			lo, top = r, p
		} else {
			hi = r
		}
	}
	over := phase("over", streamOver, spec.over, dOver)
	if top == nil {
		// Not even low met the limits: capacity_rps and sm_per_s are
		// taken at the low rate, a floor.
		top = low
	}

	// The engine calls behind each kind of request and the modeled
	// cycles of a call come from engine results (Result.Stats) on the low
	// phase's inputs. capacity_rps is the throughput top sustained: its
	// answers per second from its first due time to its last answer (the
	// nominal rates of the bisection repeat exactly from run to run), and
	// sm_per_s the engine calls behind those answers per second.
	metered := low.reqs[:min(len(low.reqs), meteredRequests)]
	calls, cyclesPerCall, err := meterRequests(rep, metered)
	if err != nil {
		return err
	}
	capSMs := 0.0
	for i, o := range top.outs {
		if o.status == http.StatusOK {
			capSMs += calls[top.reqs[i].kind]
		}
	}
	rep.add("sm_per_s", capSMs/top.Answered, "SM/s", top.OK)
	rep.add("goodput_rps.over", float64(over.OK)/over.Window, "1/s", over.Sent)
	rep.add("capacity_rps", float64(top.OK)/top.Answered, "1/s", top.OK)
	rep.add("refused_frac.mid", float64(mid.Refused)/float64(mid.Sent), "ratio", mid.Sent)
	rep.add("p50_ms.low", low.P50ms, "ms", low.Sent)
	rep.add("p90_ms.low", low.P90ms, "ms", low.Sent)
	rep.add("p99_ms.low", low.P99ms, "ms", low.Sent)
	rep.add("p50_ms.mid", mid.P50ms, "ms", mid.Sent)
	rep.add("p90_ms.mid", mid.P90ms, "ms", mid.Sent)
	rep.add("p99_ms.mid", mid.P99ms, "ms", mid.Sent)
	rep.add("modeled_cycles_per_sm", cyclesPerCall, "cycles", len(metered))
	return nil
}

// meteredRequests is how many of the low phase's requests are replayed
// through the meter: whole blocks of the mix, so that the figures do not
// depend on the seed.
const meteredRequests = 100

// meterRequests replays reqs one at a time as the server answers them —
// through schnorrq, or straight to the engine for a scalar
// multiplication — on an engine built from the run's processor, and
// checks every answer. It returns the mean engine calls per request of
// each kind and the modeled cycles per call, both from engine results.
func meterRequests(rep *report, reqs []*request) (calls [len(opPaths)]float64, cyclesPerCall float64, err error) {
	eng := engine.NewWithProcessor(rep.proc, meterOptions())
	defer eng.Close()
	lp := &layerProbe{rep: rep, log: &spanLog{t0: time.Now()}}
	m := &meter{lp: lp, eng: eng}
	ctx := context.Background()
	var count [len(opPaths)]int
	var cycles int64
	total := 0
	for i, q := range reqs {
		m.reset(-1, i)
		if q.kind == opScalarMult {
			err = replayScalarMult(ctx, lp, m, q)
		} else {
			err = replaySchnorrq(ctx, lp, m, q)
		}
		if err != nil {
			return calls, 0, err
		}
		calls[q.kind] += float64(m.calls)
		count[q.kind]++
		cycles += m.cycles
		total += m.calls
	}
	for k := range calls {
		if count[k] > 0 {
			calls[k] /= float64(count[k])
		}
	}
	return calls, float64(cycles) / float64(total), nil
}

// checkAnswers counts every answer and checks every 200 against the
// oracle: a signature must be byte-equal to PrivateKey.Sign, a verdict
// must equal the expected one, a point must equal curve.ScalarMult.
func checkAnswers(rep *report, reqs []*request, outs []outcome) {
	rep.attempt(len(reqs))
	msgs := make([]string, len(reqs))
	parallel(len(reqs), func(i int) {
		if outs[i].status == http.StatusOK {
			msgs[i] = checkAnswer(reqs[i], outs[i].body)
		}
	})
	for i, o := range outs {
		switch {
		case o.status != http.StatusOK && o.status != http.StatusServiceUnavailable:
			rep.errored++
		case msgs[i] != "":
			rep.mismatch("%s %s", opPaths[reqs[i].kind], msgs[i])
		}
	}
}

func checkAnswer(q *request, body []byte) string {
	switch q.kind {
	case opScalarMult:
		var r serve.ScalarMultResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if want := hex.EncodeToString(q.point[:]); r.Point != want {
			return fmt.Sprintf("point %s, want %s", r.Point, want)
		}
	case opSign:
		var r serve.SignResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		key, err := schnorrq.NewKeyFromSeed(q.seed)
		if err != nil {
			return err.Error()
		}
		sig, pub := key.Sign(q.msg), key.Public.Bytes()
		if r.Sig != hex.EncodeToString(sig[:]) || r.Pub != hex.EncodeToString(pub[:]) {
			return fmt.Sprintf("signature %s differs from PrivateKey.Sign", r.Sig)
		}
	case opVerify:
		var r serve.VerifyResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if r.Valid != q.valid {
			return fmt.Sprintf("verdict %v, want %v", r.Valid, q.valid)
		}
	case opBatch:
		var r serve.BatchVerifyResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if r.Valid != q.valid || r.Items != batchItems {
			return fmt.Sprintf("verdict %v over %d items, want %v over %d", r.Valid, r.Items, q.valid, batchItems)
		}
	}
	return ""
}

// target is what a workload drives. The self-tests wrap it to corrupt
// answers.
type target struct {
	handler     http.Handler
	submitBatch func(ctx context.Context, reqs []engine.Request) ([]engine.Result, error)
}
