package chaos

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// workItem is one pre-validated request with its oracle answer,
// computed in software before the server under test exists.
type workItem struct {
	kind   string // scalarmult | sign | verify
	path   string
	body   []byte
	expect string // hex point (scalarmult) or hex signature (sign); verify expects valid=true
}

// outcome classifies one response.
type outcome int

const (
	oOK outcome = iota
	oMis
	oShed
	oRateLimited
	oCanceled
	oDrained
	oFailed
)

// harness drives one scenario: the seeded workload, the server under
// test (driven straight through its Handler), the per-phase tallies,
// and the invariant reconciliation.
type harness struct {
	name string
	opts Options
	seed int64
	rnd  *rand.Rand
	work []workItem

	srv       *serve.Server
	reg       *telemetry.Registry
	handler   http.Handler
	healthThr float64

	// manualFaults counts synthetic fault events that do not flow
	// through a fault.Injector: stall windows, clock skews, overload
	// bursts.
	manualFaults atomic.Int64

	mu         sync.Mutex
	phases     map[string]PhaseStats
	walls      map[string]float64 // accumulated measured seconds per phase
	issued     int
	mis        int
	violations []string

	recoveryMS    *float64
	recoveryRatio *float64
}

// workSize is the distinct-request pool a scenario's traffic rotates
// through.
const workSize = 32

func newHarness(name string, opts Options) (*harness, error) {
	hs := fnv.New64a()
	hs.Write([]byte(name))
	seed := opts.Seed ^ int64(hs.Sum64())
	h := &harness{
		name:   name,
		opts:   opts,
		seed:   seed,
		rnd:    rand.New(rand.NewSource(seed)),
		phases: make(map[string]PhaseStats),
		walls:  make(map[string]float64),
	}
	if err := h.buildWorkload(); err != nil {
		return nil, err
	}
	return h, nil
}

// buildWorkload derives the request pool and its oracle answers from
// the scenario seed: a deterministic mix of scalarmult, sign, and
// verify, so every 200 the campaign ever sees has a precomputed right
// answer to check against.
func (h *harness) buildWorkload() error {
	for len(h.work) < workSize {
		switch h.rnd.Intn(3) {
		case 0:
			k := scalar.ModN(scalar.Scalar{h.rnd.Uint64(), h.rnd.Uint64(), h.rnd.Uint64(), h.rnd.Uint64()})
			kb := k.Bytes()
			body, err := json.Marshal(serve.ScalarMultRequest{Scalar: hex.EncodeToString(kb[:])})
			if err != nil {
				return err
			}
			p := curve.ScalarMult(k, curve.Generator()).Affine()
			enc := curve.FromAffine(p).Bytes()
			h.work = append(h.work, workItem{
				kind: "scalarmult", path: "/v1/scalarmult", body: body,
				expect: hex.EncodeToString(enc[:]),
			})
		case 1, 2:
			var seed [schnorrq.SeedSize]byte
			h.rnd.Read(seed[:])
			key, err := schnorrq.NewKeyFromSeed(seed)
			if err != nil {
				continue // negligible-probability bad seed: redraw
			}
			msg := make([]byte, 16)
			h.rnd.Read(msg)
			sig := key.Sign(msg)
			if h.rnd.Intn(2) == 0 {
				body, err := json.Marshal(serve.SignRequest{
					Seed: hex.EncodeToString(seed[:]), Msg: hex.EncodeToString(msg),
				})
				if err != nil {
					return err
				}
				h.work = append(h.work, workItem{
					kind: "sign", path: "/v1/sign", body: body,
					expect: hex.EncodeToString(sig[:]),
				})
			} else {
				pub := key.Public.Bytes()
				body, err := json.Marshal(serve.VerifyRequest{
					Pub: hex.EncodeToString(pub[:]), Msg: hex.EncodeToString(msg), Sig: hex.EncodeToString(sig[:]),
				})
				if err != nil {
					return err
				}
				h.work = append(h.work, workItem{kind: "verify", path: "/v1/verify", body: body})
			}
		}
	}
	return nil
}

// start builds the server under test. The harness owns the registry so
// finish() can reconcile tallies even after the server closes.
func (h *harness) start(sopts serve.Options) error {
	if sopts.Registry == nil {
		sopts.Registry = telemetry.NewRegistry()
	}
	h.reg = sopts.Registry
	h.healthThr = sopts.HealthThreshold
	if h.healthThr <= 0 || h.healthThr > 1 {
		h.healthThr = 0.25
	}
	srv, err := serve.New(sopts)
	if err != nil {
		return err
	}
	h.srv = srv
	h.handler = srv.Handler()
	return nil
}

// do issues one request straight through the handler and classifies
// the response against the oracle. timeout > 0 abandons the request
// (client disconnect) after that long.
func (h *harness) do(it workItem, timeout time.Duration, tenant string) outcome {
	req := httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.handler.ServeHTTP(rec, req)

	switch rec.Code {
	case http.StatusOK:
		if h.checkAnswer(it, rec.Body.Bytes()) {
			return oOK
		}
		return oMis
	case http.StatusTooManyRequests:
		return oRateLimited
	case http.StatusServiceUnavailable:
		var e serve.ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		switch e.Error {
		case "draining":
			return oDrained
		case "request canceled":
			return oCanceled
		default:
			return oShed
		}
	default:
		return oFailed
	}
}

// checkAnswer compares a 200 body against the oracle.
func (h *harness) checkAnswer(it workItem, body []byte) bool {
	switch it.kind {
	case "scalarmult":
		var resp serve.ScalarMultResponse
		return json.Unmarshal(body, &resp) == nil && resp.Point == it.expect
	case "sign":
		var resp serve.SignResponse
		return json.Unmarshal(body, &resp) == nil && resp.Sig == it.expect
	case "verify":
		var resp serve.VerifyResponse
		return json.Unmarshal(body, &resp) == nil && resp.Valid
	}
	return false
}

// record folds one outcome into a phase's tally.
func (h *harness) record(phase string, o outcome) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.phases[phase]
	st.Requests++
	switch o {
	case oOK:
		st.OK++
	case oMis:
		st.OK++ // it was answered; the mis-answer is tracked separately
		h.mis++
	case oShed:
		st.Shed++
	case oRateLimited:
		st.RateLimited++
	case oCanceled:
		st.Canceled++
	case oDrained:
		st.Drained++
	case oFailed:
		st.Failed++
	}
	h.phases[phase] = st
	h.issued++
}

// phase drives n requests at the given concurrency through the
// handler, classifying every response into the named phase bucket, and
// returns the bucket's accumulated stats.
func (h *harness) phase(name string, n, conc int, timeout time.Duration, tenants int) PhaseStats {
	h.burst(name, n, 0, conc, timeout, tenants)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.phases[name]
}

// burst drives one traffic burst of at least n requests, lasting at
// least window, into a phase bucket and returns that burst's own OK
// count and wall seconds — the units the recovery measurement pools,
// independent of whatever else has accumulated in the bucket.
func (h *harness) burst(name string, n int, window time.Duration, conc int, timeout time.Duration, tenants int) (ok int, wall float64) {
	if conc <= 0 {
		conc = 4
	}
	h.mu.Lock()
	okBefore := h.phases[name].OK
	h.mu.Unlock()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n && time.Since(start) >= window {
					return
				}
				it := h.work[i%len(h.work)]
				h.record(name, h.do(it, timeout, tenantName(i, tenants)))
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start).Seconds()
	st := h.addWall(name, wall)
	return st.OK - okBefore, wall
}

// addWall accumulates measured wall time into a phase bucket and
// refreshes its goodput. Buckets driven in several bursts (or by
// trickled probes) keep an honest OK-over-total-measured-time rate.
func (h *harness) addWall(name string, seconds float64) PhaseStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.walls[name] += seconds
	st := h.phases[name]
	if w := h.walls[name]; w > 0 {
		st.GoodputRPS = float64(st.OK) / w
	}
	h.phases[name] = st
	return st
}

func tenantName(i, tenants int) string {
	if tenants <= 0 {
		return ""
	}
	return fmt.Sprintf("tenant-%d", i%tenants)
}

// trickleOne sends a single request into the named phase bucket —
// recovery polling uses it to keep probe traffic flowing.
func (h *harness) trickleOne(phase string, i int) {
	it := h.work[i%len(h.work)]
	start := time.Now()
	h.record(phase, h.do(it, 0, ""))
	h.addWall(phase, time.Since(start).Seconds())
}

// healthy reports whether every shard currently scores at or above the
// health threshold and none is ejected.
func (h *harness) healthy() bool {
	snap := h.reg.Snapshot()
	for i := 0; i < h.srv.Shards(); i++ {
		if snap.Gauges[fmt.Sprintf("serve.shard_%d_ejected", i)] != 0 {
			return false
		}
		if snap.Gauges[fmt.Sprintf("serve.shard_%d_health", i)] < h.healthThr {
			return false
		}
	}
	return true
}

// awaitRecovery polls shard health after a fault window closes,
// trickling probe traffic so breaker probes and supervisor samples have
// something to measure. It records RecoveryMS on success and a
// violation on timeout.
func (h *harness) awaitRecovery(phase string) bool {
	start := time.Now()
	for i := 0; time.Since(start) < recoveryBound; i++ {
		if h.healthy() {
			ms := float64(time.Since(start).Microseconds()) / 1000
			h.recoveryMS = &ms
			return true
		}
		h.trickleOne(phase, i)
		time.Sleep(2 * time.Millisecond)
	}
	h.violate("shards did not recover to healthy within %v of the fault clearing", recoveryBound)
	return false
}

// measureRecovery compares post-fault goodput with a twin fleet: a
// second server built from twin, the scenario's configuration with its
// own fault switches that never fire. One comparison drives the two in
// recoverySlices alternating slices each, recoveryWindow per fleet in
// all, and divides the pooled post-fault goodput by the pooled twin
// goodput. A change in host speed since the pre-fault phase (contention
// from other processes, a slower speed state) therefore moves both
// sides of the ratio alike, and the ratio averages over scheduler noise
// however fast the engine answers. It keeps the best of up to four
// comparisons: a recovered fleet only has to produce one at the floor,
// while a fleet that genuinely lost capacity stays below it on every
// try.
func (h *harness) measureRecovery(twin serve.Options, n, conc, tenants int) {
	tw := &harness{
		name:   h.name + "/twin",
		opts:   h.opts,
		work:   h.work,
		phases: make(map[string]PhaseStats),
		walls:  make(map[string]float64),
	}
	if err := tw.start(twin); err != nil {
		h.violate("twin fleet failed to start: %v", err)
		return
	}
	defer tw.srv.Close()
	tw.phase("warmup", n/2, conc, 0, tenants)
	slice := recoveryWindow / recoverySlices
	best := 0.0
	for round := 0; round < 4 && best < recoveryFloor; round++ {
		runtime.GC()
		var postOK, baseOK int
		var postWall, baseWall float64
		for s := 0; s < recoverySlices; s++ {
			// Alternate which fleet leads, so neither always runs second.
			for k := 0; k < 2; k++ {
				if (round+s+k)%2 == 0 {
					ok, wall := h.burst("post", conc, slice, conc, 0, tenants)
					postOK, postWall = postOK+ok, postWall+wall
				} else {
					ok, wall := tw.burst("base", conc, slice, conc, 0, tenants)
					baseOK, baseWall = baseOK+ok, baseWall+wall
				}
			}
		}
		if baseOK == 0 {
			h.violate("twin fleet recorded no goodput to compare against")
			return
		}
		best = max(best, (float64(postOK)/postWall)/(float64(baseOK)/baseWall))
	}
	if tw.mis != 0 {
		h.violate("%d twin fleet responses disagreed with the software oracle", tw.mis)
	}
	h.recoveryRatio = &best
	if best < recoveryFloor {
		h.violate("post-fault goodput recovered to only %.0f%% of the twin fleet's (floor %.0f%%)",
			100*best, 100*recoveryFloor)
	}
}

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// finish closes the server, reconciles every tally against the
// server's own counters, and assembles the scenario result. The
// exactly-once proof is the reconciliation: the client saw exactly one
// response per issued request (lost = 0), and the server's serve.ok
// counter matches the 200s the client counted (duplicates = 0).
func (h *harness) finish() ScenarioResult {
	h.srv.Close()
	snap := h.reg.Snapshot()

	res := ScenarioResult{
		Name:           h.name,
		Seed:           h.seed,
		Phases:         h.phases,
		MisAnswered:    h.mis,
		EngineRejected: snap.Counters["serve.engine_rejected"],
		ShardsEjected:  snap.Counters["serve.shard_ejected"],
		ShardsRebuilt:  snap.Counters["serve.shard_rebuilt"],
		HedgeWins:      snap.Counters["serve.hedge_wins"],
		FaultsInjected: snap.Counters["fault.fired"] + h.manualFaults.Load(),
		RecoveryMS:     h.recoveryMS,
		RecoveryRatio:  h.recoveryRatio,
		Violations:     h.violations,
	}

	agg := map[string]int{}
	answered := 0
	clientOK := 0
	for _, st := range h.phases {
		agg["ok"] += st.OK
		agg["shed"] += st.Shed
		agg["rate_limited"] += st.RateLimited
		agg["canceled"] += st.Canceled
		agg["drained"] += st.Drained
		agg["failed"] += st.Failed
		answered += st.Requests
		clientOK += st.OK
	}
	agg["total"] = h.issued
	res.Requests = agg

	res.Lost = h.issued - answered
	res.Duplicates = snap.Counters["serve.ok"] - int64(clientOK)

	if res.Lost != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d requests issued but never classified (lost)", res.Lost))
	}
	if res.Duplicates != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"server answered %d OK vs %d observed by clients (duplicate or phantom answers)",
			snap.Counters["serve.ok"], clientOK))
	}
	if res.MisAnswered != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d responses disagreed with the software oracle", res.MisAnswered))
	}
	if res.EngineRejected != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"serve.engine_rejected = %d: engine backpressure fired before admission shed", res.EngineRejected))
	}
	if res.FaultsInjected == 0 {
		res.Violations = append(res.Violations, "scenario injected no faults (nothing was tested)")
	}
	if agg["failed"] != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d requests failed with unexpected statuses", agg["failed"]))
	}
	return res
}
