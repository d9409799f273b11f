package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
)

// testSrv is a server on a real loopback listener, the shape the drain
// tests need (Serve's return value and the closed listener are part of
// the contract under test).
type testSrv struct {
	s        *Server
	base     string
	serveErr chan error
	client   *http.Client
}

func startServer(t *testing.T, opts Options) *testSrv {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	go func() { ch <- s.Serve(l) }()
	t.Cleanup(s.Close)
	return &testSrv{
		s:        s,
		base:     "http://" + l.Addr().String(),
		serveErr: ch,
		client:   &http.Client{Timeout: 30 * time.Second},
	}
}

// post sends one JSON API request and returns status plus decoded body
// bytes. Transport-level failures are fatal: an admitted request must
// always produce an HTTP response.
func (ts *testSrv) post(t testing.TB, path, tenant string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.base+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(headerTenant, tenant)
	}
	resp, err := ts.client.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, b
}

// fixture is a deterministic workload: scalars with their software
// oracle points, a signing key with presigned messages, and tampered
// variants.
type fixture struct {
	scalars []scalar.Scalar
	points  []string // hex of the compressed software result
	seed    [schnorrq.SeedSize]byte
	seedHex string
	key     *schnorrq.PrivateKey
	pubHex  string
	msgs    [][]byte
	sigs    [][]byte
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	f := &fixture{}
	for i := 0; i < n; i++ {
		k := scalar.ModN(scalar.Scalar{uint64(i)*0x9E3779B97F4A7C15 + 1, uint64(i) + 7, 0, 0})
		p := curve.ScalarMult(k, curve.Generator()).Affine()
		enc := curve.FromAffine(p).Bytes()
		f.scalars = append(f.scalars, k)
		f.points = append(f.points, hex.EncodeToString(enc[:]))
	}
	for i := range f.seed {
		f.seed[i] = byte(i*17 + 3)
	}
	f.seedHex = hex.EncodeToString(f.seed[:])
	key, err := schnorrq.NewKeyFromSeed(f.seed)
	if err != nil {
		t.Fatal(err)
	}
	f.key = key
	pub := key.Public.Bytes()
	f.pubHex = hex.EncodeToString(pub[:])
	for i := 0; i < n; i++ {
		msg := []byte(fmt.Sprintf("msg %d for the serve e2e", i))
		sig := key.Sign(msg)
		f.msgs = append(f.msgs, msg)
		f.sigs = append(f.sigs, sig[:])
	}
	return f
}

func (f *fixture) verifyReq(i int) VerifyRequest {
	return VerifyRequest{
		Pub: f.pubHex,
		Msg: hex.EncodeToString(f.msgs[i%len(f.msgs)]),
		Sig: hex.EncodeToString(f.sigs[i%len(f.sigs)]),
	}
}

// TestServeEndToEndRace is the race-enabled end-to-end service test:
// concurrent mixed sign/verify/scalarmult/batch traffic from many
// goroutines against a live 2-shard server. Every 200 must agree with
// the software oracle, every refusal must be a clean 503/429, the
// engine queues must never saturate (shedding happens at the front
// door), and the admission accounting must reconcile exactly.
func TestServeEndToEndRace(t *testing.T) {
	ts := startServer(t, Options{
		Shards: 2,
		Engine: engine.Options{Workers: 2, LaneWidth: 2},
		Tenants: map[string]TenantLimit{
			"alice": {Rate: 1e6, Burst: 1 << 20},
			"bob":   {Rate: 1e6, Burst: 1 << 20},
		},
	})
	f := newFixture(t, 8)

	const goroutines = 8
	const perG = 24
	type tally struct{ ok, shed, limited int }
	tallies := make([]tally, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := "alice"
			if g%2 == 1 {
				tenant = "bob"
			}
			for i := 0; i < perG; i++ {
				n := g*perG + i
				var status int
				var body []byte
				var check func() error
				switch n % 5 {
				case 0: // scalar multiplication vs the software oracle
					idx := n % len(f.scalars)
					sb := f.scalars[idx].Bytes()
					status, body = ts.post(t, "/v1/scalarmult", tenant,
						ScalarMultRequest{Scalar: hex.EncodeToString(sb[:])})
					check = func() error {
						var r ScalarMultResponse
						if err := json.Unmarshal(body, &r); err != nil {
							return err
						}
						if r.Point != f.points[idx] {
							return fmt.Errorf("point %s, oracle %s", r.Point, f.points[idx])
						}
						return nil
					}
				case 1: // deterministic signing vs software Sign
					idx := n % len(f.msgs)
					status, body = ts.post(t, "/v1/sign", tenant,
						SignRequest{Seed: f.seedHex, Msg: hex.EncodeToString(f.msgs[idx])})
					check = func() error {
						var r SignResponse
						if err := json.Unmarshal(body, &r); err != nil {
							return err
						}
						if want := hex.EncodeToString(f.sigs[idx]); r.Sig != want {
							return fmt.Errorf("sig diverges from software signing")
						}
						return nil
					}
				case 2: // valid signature must verify
					status, body = ts.post(t, "/v1/verify", tenant, f.verifyReq(n))
					check = func() error {
						var r VerifyResponse
						if err := json.Unmarshal(body, &r); err != nil {
							return err
						}
						if !r.Valid {
							return fmt.Errorf("valid signature rejected")
						}
						return nil
					}
				case 3: // tampered message must not verify
					req := f.verifyReq(n)
					req.Msg = hex.EncodeToString([]byte("tampered"))
					status, body = ts.post(t, "/v1/verify", tenant, req)
					check = func() error {
						var r VerifyResponse
						if err := json.Unmarshal(body, &r); err != nil {
							return err
						}
						if r.Valid {
							return fmt.Errorf("tampered message verified")
						}
						return nil
					}
				default: // batch of three valid signatures
					status, body = ts.post(t, "/v1/batch/verify", tenant,
						BatchVerifyRequest{Items: []VerifyRequest{
							f.verifyReq(n), f.verifyReq(n + 1), f.verifyReq(n + 2),
						}})
					check = func() error {
						var r BatchVerifyResponse
						if err := json.Unmarshal(body, &r); err != nil {
							return err
						}
						if !r.Valid {
							return fmt.Errorf("valid batch rejected")
						}
						return nil
					}
				}
				switch status {
				case http.StatusOK:
					if err := check(); err != nil {
						t.Errorf("goroutine %d op %d: %v (body %s)", g, n, err, body)
					}
					tallies[g].ok++
				case http.StatusServiceUnavailable:
					var e ErrorResponse
					if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
						t.Errorf("503 without a clean JSON error body: %s", body)
					}
					tallies[g].shed++
				case http.StatusTooManyRequests:
					tallies[g].limited++
				default:
					t.Errorf("goroutine %d op %d: unexpected status %d: %s", g, n, status, body)
				}
			}
		}(g)
	}
	wg.Wait()

	var ok, shed, limited int
	for _, ta := range tallies {
		ok, shed, limited = ok+ta.ok, shed+ta.shed, limited+ta.limited
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	snap := ts.s.Metrics().Snapshot()
	// Shedding must happen at the front door, never at the engine: the
	// weighted admission keeps every shard's outstanding work under its
	// queue capacity.
	for i := 0; i < ts.s.Shards(); i++ {
		if rej := snap.Counters[fmt.Sprintf("engine.shard%d.rejected", i)]; rej != 0 {
			t.Errorf("engine shard %d rejected %d submissions — admission failed to shed first", i, rej)
		}
	}
	if n := snap.Counters["serve.engine_rejected"]; n != 0 {
		t.Errorf("serve.engine_rejected = %d, want 0", n)
	}
	if got := snap.Counters["serve.ok"]; got != int64(ok) {
		t.Errorf("serve.ok = %d, clients saw %d", got, ok)
	}
	if got := snap.Counters["serve.shed"] + snap.Counters["serve.drain_refused"]; got != int64(shed) {
		t.Errorf("serve shed+drain_refused = %d, clients saw %d 503s", got, shed)
	}
	if got := snap.Counters["serve.rate_limited"]; got != int64(limited) {
		t.Errorf("serve.rate_limited = %d, clients saw %d 429s", got, limited)
	}
	var served int64
	for i := 0; i < ts.s.Shards(); i++ {
		served += snap.Counters[fmt.Sprintf("serve.shard_%d_requests", i)]
	}
	if served != int64(ok) {
		t.Errorf("shard served sum = %d, want %d", served, ok)
	}
	if inflight := ts.s.Inflight(); inflight != 0 {
		t.Errorf("inflight = %d after traffic drained", inflight)
	}
	for i := 0; i < ts.s.Shards(); i++ {
		if w := snap.Gauges[fmt.Sprintf("serve.shard_%d_weight", i)]; w != 0 {
			t.Errorf("shard %d weight gauge = %v after quiescence", i, w)
		}
	}
}

// TestShedBeforeEngineSaturates pins the admission invariant directly:
// with requests held between admission and dispatch, exactly the
// weighted high-water mark is admitted, everything beyond it is a clean
// 503, and the engine sees zero rejected submissions.
func TestShedBeforeEngineSaturates(t *testing.T) {
	ts := startServer(t, Options{
		Shards:        1,
		Engine:        engine.Options{Workers: 1, QueueDepth: 8},
		ShedHighWater: 0.5, // limit = 4 of the 8-deep queue
	})
	gate := make(chan struct{})
	ts.s.setHoldGate(gate)

	f := newFixture(t, 1)
	sb := f.scalars[0].Bytes()
	req := ScalarMultRequest{Scalar: hex.EncodeToString(sb[:])}

	const total = 20
	statuses := make(chan int, total)
	var responded atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := ts.post(t, "/v1/scalarmult", "", req)
			responded.Add(1)
			statuses <- status
		}()
	}
	// Wait until the admitted set has assembled at the gate AND every
	// other request has been shed — only then is it safe to open the
	// gate without a late arrival sneaking into freed capacity.
	deadline := time.Now().Add(5 * time.Second)
	for (ts.s.Inflight() != 4 || responded.Load() != total-4) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, resp := ts.s.Inflight(), responded.Load(); got != 4 || resp != total-4 {
		t.Fatalf("inflight=%d responded=%d at the gate, want 4/%d", got, resp, total-4)
	}
	close(gate)
	wg.Wait()
	close(statuses)

	var ok, shed, other int
	for st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("%d requests got a status besides 200/503", other)
	}
	if ok != 4 || shed != total-4 {
		t.Fatalf("ok=%d shed=%d, want 4/%d", ok, shed, total-4)
	}
	snap := ts.s.Metrics().Snapshot()
	if rej := snap.Counters["engine.shard0.rejected"]; rej != 0 {
		t.Fatalf("engine rejected %d submissions; shedding must happen first", rej)
	}
	if n := snap.Counters["serve.shed"]; n != int64(total-4) {
		t.Fatalf("serve.shed = %d, want %d", n, total-4)
	}
}

// TestTenantAdmission covers the token-bucket path deterministically: a
// zero-refill bucket admits exactly its burst, then answers 429 with
// Retry-After; unknown and missing tenants are 403.
func TestTenantAdmission(t *testing.T) {
	ts := startServer(t, Options{
		Shards: 1,
		Engine: engine.Options{Workers: 1},
		Tenants: map[string]TenantLimit{
			"metered": {Rate: 0, Burst: 2},
		},
	})
	f := newFixture(t, 1)
	sb := f.scalars[0].Bytes()
	req := ScalarMultRequest{Scalar: hex.EncodeToString(sb[:])}

	for i := 0; i < 2; i++ {
		if status, body := ts.post(t, "/v1/scalarmult", "metered", req); status != http.StatusOK {
			t.Fatalf("request %d within burst: status %d: %s", i, status, body)
		}
	}
	status, body := ts.post(t, "/v1/scalarmult", "metered", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429: %s", status, body)
	}
	if status, _ := ts.post(t, "/v1/scalarmult", "nobody", req); status != http.StatusForbidden {
		t.Fatalf("unknown tenant: status %d, want 403", status)
	}
	if status, _ := ts.post(t, "/v1/scalarmult", "", req); status != http.StatusForbidden {
		t.Fatalf("missing tenant header: status %d, want 403", status)
	}
	snap := ts.s.Metrics().Snapshot()
	if n := snap.Counters["serve.tenant_metered_throttled"]; n != 1 {
		t.Errorf("serve.tenant_metered_throttled = %d, want 1", n)
	}
	if n := snap.Counters["serve.unknown_tenant"]; n != 2 {
		t.Errorf("serve.unknown_tenant = %d, want 2", n)
	}
}

// TestDebugSurfaceMounted asserts the PR 6 observability endpoints ride
// the same mux as the API: /metrics carries serve.* and per-shard
// engine.shardN.* families, /debug/flightrecorder answers JSON.
func TestDebugSurfaceMounted(t *testing.T) {
	ts := startServer(t, Options{Shards: 2, Engine: engine.Options{Workers: 1}})
	f := newFixture(t, 1)
	sb := f.scalars[0].Bytes()
	if status, body := ts.post(t, "/v1/scalarmult", "",
		ScalarMultRequest{Scalar: hex.EncodeToString(sb[:])}); status != http.StatusOK {
		t.Fatalf("scalarmult: %d: %s", status, body)
	}
	resp, err := ts.client.Get(ts.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"serve_requests", "serve_latency_seconds_bucket", "engine_shard0_submitted", "engine_shard1_submitted"} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	resp, err = ts.client.Get(ts.base + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/flightrecorder: %v", err)
	}
}

// TestServeSignRidesFixedBase pins the request-class routing through the
// whole stack: the server's processor carries the comb program, a
// /v1/sign commitment lands on it (per-shard engine counter
// completed_fixedbase), and each /v1/verify puts exactly one call on
// each program: [s]G on the comb, [h]A variable-base.
func TestServeSignRidesFixedBase(t *testing.T) {
	ts := startServer(t, Options{
		Shards: 1,
		Engine: engine.Options{Workers: 1},
	})
	f := newFixture(t, 1)

	status, body := ts.post(t, "/v1/sign", "",
		SignRequest{Seed: f.seedHex, Msg: hex.EncodeToString(f.msgs[0])})
	if status != http.StatusOK {
		t.Fatalf("sign: status %d: %s", status, body)
	}
	var sr SignResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sig != hex.EncodeToString(f.sigs[0]) {
		t.Fatal("served signature differs from the software signature")
	}
	snap := ts.s.Metrics().Snapshot()
	if got := snap.Counters["engine.shard0.completed_fixedbase"]; got != 1 {
		t.Fatalf("completed_fixedbase = %d after one sign, want 1", got)
	}

	status, body = ts.post(t, "/v1/verify", "", f.verifyReq(0))
	if status != http.StatusOK {
		t.Fatalf("verify: status %d: %s", status, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatal("verify rejected a valid signature")
	}
	snap = ts.s.Metrics().Snapshot()
	if got := snap.Counters["engine.shard0.completed_fixedbase"]; got != 2 {
		t.Fatalf("completed_fixedbase = %d after one sign and one verify, want 2", got)
	}
	if got := snap.Counters["engine.shard0.completed_variablebase"]; got != 1 {
		t.Fatalf("completed_variablebase = %d after one verify, want 1", got)
	}
}

// TestServeBatchVerifyExactOnComb: /v1/batch/verify verifies each item
// exactly as a /v1/verify pair — one comb [s_i]G and one variable-base
// [h_i]A_i per item, 2n engine calls — and a single forged item turns
// the verdict false.
func TestServeBatchVerifyExactOnComb(t *testing.T) {
	ts := startServer(t, Options{
		Shards: 1,
		Engine: engine.Options{Workers: 1, LaneWidth: 4},
	})
	f := newFixture(t, 3)
	batch := BatchVerifyRequest{Items: []VerifyRequest{f.verifyReq(0), f.verifyReq(1), f.verifyReq(2)}}
	forged := BatchVerifyRequest{Items: append([]VerifyRequest(nil), batch.Items...)}
	forged.Items[1].Msg = hex.EncodeToString([]byte("forged"))
	for i, tc := range []struct {
		req  BatchVerifyRequest
		want bool
	}{{batch, true}, {forged, false}} {
		status, body := ts.post(t, "/v1/batch/verify", "", tc.req)
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, status, body)
		}
		var br BatchVerifyResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if br.Valid != tc.want || br.Items != 3 {
			t.Fatalf("batch %d: valid=%v items=%d, want valid=%v items=3", i, br.Valid, br.Items, tc.want)
		}
		snap := ts.s.Metrics().Snapshot()
		calls := int64(3 * (i + 1))
		if fb, vb := snap.Counters["engine.shard0.completed_fixedbase"], snap.Counters["engine.shard0.completed_variablebase"]; fb != calls || vb != calls {
			t.Fatalf("after batch %d: completed_fixedbase=%d completed_variablebase=%d, want %d each", i, fb, vb, calls)
		}
	}
}
