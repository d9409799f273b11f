package engine

import (
	"context"
	mrand "math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
	"repro/internal/telemetry"
)

// testFBProcessor is the FixedBase-enabled counterpart of testProcessor
// (cache-deduplicated, so the comb program is built once per binary).
func testFBProcessor(t testing.TB) *core.Processor {
	t.Helper()
	p, err := CachedProcessor(core.Config{FixedBase: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// classReq builds one request of the given class; variable-base requests
// get a non-generator base so a class-routing mistake changes the answer.
func classReq(rng *mrand.Rand, c Class) Request {
	var k scalar.Scalar
	for i := range k {
		k[i] = rng.Uint64()
	}
	req := Request{K: k, Class: c}
	if c == ClassVariableBase {
		var b scalar.Scalar
		for i := range b {
			b[i] = rng.Uint64()
		}
		req.Base = curve.ScalarMultBinary(b, curve.Generator()).Affine()
	}
	return req
}

func wantClassPoint(req Request) curve.Affine {
	if req.Class == ClassFixedBase {
		return curve.ScalarMult(req.K, curve.Generator()).Affine()
	}
	return wantPoint(req)
}

// TestEngineClassRouting pins the per-program routing surface: fixed-
// base-class requests compute [k]G on the comb program, variable-base
// requests keep their own base, and the per-program completion counters
// account for every request.
func TestEngineClassRouting(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testFBProcessor(t), Options{
		Workers: 2, QueueDepth: 64, Verify: true, Registry: reg,
	})
	rng := mrand.New(mrand.NewSource(63))
	const jobs = 16
	reqs := make([]Request, jobs)
	fb := 0
	for i := range reqs {
		c := ClassVariableBase
		if i%3 != 0 {
			c = ClassFixedBase
			fb++
		}
		reqs[i] = classReq(rng, c)
	}
	results, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		want := wantClassPoint(reqs[i])
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d (%v): wrong point", i, reqs[i].Class)
		}
		if r.Backend != BackendRTL {
			t.Fatalf("request %d: backend %v, want RTL", i, r.Backend)
		}
	}
	e.Close()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if got := get("engine.completed_fixedbase"); got != int64(fb) {
		t.Fatalf("completed_fixedbase = %d, want %d", got, fb)
	}
	if got := get("engine.completed_variablebase"); got != int64(jobs-fb) {
		t.Fatalf("completed_variablebase = %d, want %d", got, jobs-fb)
	}
	// The comb's schedule is the point of the routing: fixed-base results
	// must report far fewer datapath cycles than variable-base ones.
	var fbCycles, vbCycles int
	for i, r := range results {
		if reqs[i].Class == ClassFixedBase {
			fbCycles = r.Stats.Cycles
		} else {
			vbCycles = r.Stats.Cycles
		}
	}
	if fbCycles == 0 || fbCycles*2 > vbCycles {
		t.Fatalf("fixed-base ran %d cycles vs variable-base %d: routing did not take the cheap schedule", fbCycles, vbCycles)
	}
}

// TestEngineClassFallback: a processor built without the comb program
// serves fixed-base-class requests correctly on the variable-base
// program (graceful degradation, no error surface).
func TestEngineClassFallback(t *testing.T) {
	e := NewWithProcessor(testProcessor(t), Options{Workers: 1, Verify: true})
	defer e.Close()
	rng := mrand.New(mrand.NewSource(64))
	req := classReq(rng, ClassFixedBase)
	r, err := e.Submit(context.Background(), req)
	if err != nil || r.Err != nil {
		t.Fatalf("fixed-base request on a comb-less processor failed: %v / %v", err, r.Err)
	}
	want := wantClassPoint(req)
	if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
		t.Fatal("fallback fixed-base request returned a wrong point")
	}
	if r.Backend != BackendRTL {
		t.Fatalf("fallback backend %v, want RTL (variable-base program)", r.Backend)
	}
}

// TestSchnorrQSigningRidesFixedBase is the end-to-end routing check:
// SignWith over a comb-carrying engine produces the bit-compatible
// signature AND the commitment multiplication lands on the fixed-base
// program (visible in the per-program completion counters), and each
// verification puts [s]G on the fixed-base program and [h]A on the
// variable-base one: exactly one call on each.
func TestSchnorrQSigningRidesFixedBase(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testFBProcessor(t), Options{
		Workers: 2, Verify: true, Registry: reg,
	})
	defer e.Close()
	ctx := context.Background()
	key, err := schnorrq.NewKeyFromSeed([32]byte{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signing takes the cheap schedule")
	sig, err := key.SignWith(ctx, e, msg)
	if err != nil {
		t.Fatal(err)
	}
	if sig != key.Sign(msg) {
		t.Fatal("fixed-base-routed signature differs from the software signature")
	}
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if got := get("engine.completed_fixedbase"); got != 1 {
		t.Fatalf("completed_fixedbase = %d after one signature, want 1", got)
	}
	ok, err := schnorrq.VerifyWith(ctx, e, &key.Public, msg, sig[:])
	if err != nil || !ok {
		t.Fatalf("verification failed: ok=%v err=%v", ok, err)
	}
	if got := get("engine.completed_fixedbase"); got != 2 {
		t.Fatalf("completed_fixedbase = %d after one signature and one verification, want 2", got)
	}
	if got := get("engine.completed_variablebase"); got != 1 {
		t.Fatalf("completed_variablebase = %d after one verification, want 1", got)
	}
}

// heldEngine builds a one-worker LaneWidth-4 engine on the fake clock
// whose ExecHook parks the worker until release is called. plug submits
// one fixed-base request and returns once the worker holds it in the
// hook, so whatever is submitted next queues up behind a busy worker;
// dispatch reports the clock reading at each batch's ExecHook.
func heldEngine(t *testing.T, clk *fakeClock, reg *telemetry.Registry) (e *Engine, plug, release func(), dispatch func() []time.Time) {
	t.Helper()
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	var mu sync.Mutex
	var at []time.Time
	e = NewWithProcessor(testFBProcessor(t), Options{
		Workers: 1, QueueDepth: 64, LaneWidth: 4,
		FlushDeadline: time.Millisecond, Clock: clk,
		Verify: true, Registry: reg,
		ExecHook: func(int) {
			mu.Lock()
			at = append(at, clk.Now())
			mu.Unlock()
			select {
			case entered <- struct{}{}:
			default:
			}
			<-hold
		},
	})
	plug = func() {
		go e.Submit(context.Background(), classReq(mrand.New(mrand.NewSource(66)), ClassFixedBase))
		<-entered
	}
	release = func() { close(hold) }
	dispatch = func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Time(nil), at...)
	}
	return e, plug, release, dispatch
}

// submitHeld submits reqs as one batch behind a held worker and returns
// once all of them are queued (load counts the plug too).
func submitHeld(t *testing.T, e *Engine, reqs []Request) <-chan []Result {
	t.Helper()
	out := make(chan []Result, 1)
	go func() {
		results, err := e.SubmitBatch(context.Background(), reqs)
		if err != nil {
			t.Error(err)
		}
		out <- results
	}()
	for e.Load() != int64(len(reqs))+1 {
		select {
		case <-out:
			t.Fatal("SubmitBatch returned while the worker was held")
		case <-time.After(100 * time.Microsecond):
		}
	}
	return out
}

// checkClassResults is the wrong-point check that catches class mixing:
// a variable-base request with its own base would come back as [k]G
// from a comb lane (or vice versa).
func checkClassResults(t *testing.T, reqs []Request, results []Result) {
	t.Helper()
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		want := wantClassPoint(reqs[i])
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d (%v): wrong point — a lane batch mixed program classes", i, reqs[i].Class)
		}
	}
}

// TestEngineLaneClassHomogeneity is the coalescing regression test: an
// interleaved burst queued behind a held LaneWidth-4 worker must never
// share a lockstep batch across program classes (the wrong-point
// check), and class-gathering must still fill the lanes: the 12
// requests run as four same-class batches of 4, 4, 2 and 2 lanes, where
// cutting the FIFO at every class boundary would leave six batches, two
// of them singletons. Every request is delivered exactly once and the
// telemetry reconciles after drain. Runs under -race in CI.
func TestEngineLaneClassHomogeneity(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	e, plug, release, _ := heldEngine(t, clk, reg)
	rng := mrand.New(mrand.NewSource(65))
	// Runs of 3+3+2+... so every class boundary lands inside a potential
	// batch.
	classes := []Class{
		ClassFixedBase, ClassFixedBase, ClassFixedBase,
		ClassVariableBase, ClassVariableBase, ClassVariableBase,
		ClassFixedBase, ClassFixedBase,
		ClassVariableBase,
		ClassFixedBase,
		ClassVariableBase, ClassVariableBase,
	}
	reqs := make([]Request, len(classes))
	for i, c := range classes {
		reqs[i] = classReq(rng, c)
	}
	plug()
	out := submitHeld(t, e, reqs)
	release()
	checkClassResults(t, reqs, <-out)
	e.Close()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if get("engine.submitted") != get("engine.completed")+get("engine.canceled") {
		t.Fatal("telemetry does not reconcile: submitted != completed + canceled")
	}
	total := int64(len(reqs)) + 1 // the plug
	if got := get("engine.completed"); got != total {
		t.Fatalf("completed = %d, want %d (exactly-once delivery)", got, total)
	}
	if get("engine.completed_fixedbase")+get("engine.completed_variablebase") != total {
		t.Fatal("per-class completion counters do not cover every request")
	}
	runs, lanes := get("engine.lane_runs"), get("engine.lane_lanes")
	if runs == 0 || lanes < 3*runs || lanes != int64(len(reqs)) {
		t.Fatalf("burst ran as %d coalesced batches over %d lanes, want same-class batches averaging >= 3 lanes and covering all %d requests",
			runs, lanes, len(reqs))
	}
}

// TestEngineLaneClassFlushBehindOtherClass: a partial batch with only
// other-class jobs queued behind it gets no lane-mate, and still
// dispatches exactly at the flush deadline — the skipped jobs then form
// their own batch, which waits out its own deadline.
func TestEngineLaneClassFlushBehindOtherClass(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	e, plug, release, dispatch := heldEngine(t, clk, reg)
	rng := mrand.New(mrand.NewSource(67))
	reqs := []Request{
		classReq(rng, ClassFixedBase),
		classReq(rng, ClassVariableBase),
		classReq(rng, ClassVariableBase),
		classReq(rng, ClassVariableBase),
	}
	plug()
	out := submitHeld(t, e, reqs)
	release()
	checkClassResults(t, reqs, <-out)
	e.Close()
	at := dispatch()
	if len(at) != 3 {
		t.Fatalf("%d batches dispatched, want 3 (plug, lone fixed-base, three variable-base)", len(at))
	}
	for i := 1; i < len(at); i++ {
		if d := at[i].Sub(at[i-1]); d != time.Millisecond {
			t.Fatalf("batch %d dispatched %v after the previous one, want the 1ms flush deadline", i, d)
		}
	}
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if got := get("engine.flush_deadline_hits"); got != 3 {
		t.Fatalf("flush_deadline_hits = %d, want 3 (every batch was partial)", got)
	}
	if runs, lanes := get("engine.lane_runs"), get("engine.lane_lanes"); runs != 1 || lanes != 3 {
		t.Fatalf("lane_runs=%d lane_lanes=%d, want the three variable-base jobs in one batch", runs, lanes)
	}
}

// TestLaneClaimGathersClass pins the claim order on a hand-built queue:
// the first live job is claimed first and fixes the class, later jobs of
// that class join the batch, other-class jobs stay queued in FIFO order,
// and canceled jobs are dropped once a claim reaches them.
func TestLaneClaimGathersClass(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := &Engine{depth: reg.Gauge("depth"), queueWait: reg.Histogram("wait", 1)}
	fb, vb := ClassFixedBase, ClassVariableBase
	type spec struct {
		name     string
		class    Class
		canceled bool
	}
	specs := []spec{
		{"vb1", vb, true}, {"fb1", fb, false}, {"vb2", vb, false}, {"fb2", fb, false},
		{"vb3", vb, true}, {"fb3", fb, false}, {"vb4", vb, false}, {"fb4", fb, false},
		{"fb5", fb, false},
	}
	names := map[*job]string{}
	for _, sp := range specs {
		j := &job{req: Request{Class: sp.class}, enq: time.Now()}
		if sp.canceled {
			j.state.Store(jobCanceled)
		}
		names[j] = sp.name
		e.queue = append(e.queue, j)
	}
	list := func(js []*job) []string {
		out := make([]string, len(js))
		for i, j := range js {
			out[i] = names[j]
		}
		return out
	}
	for _, step := range []struct{ batch, queue []string }{
		{[]string{"fb1", "fb2", "fb3", "fb4"}, []string{"vb2", "vb3", "vb4", "fb5"}},
		{[]string{"vb2", "vb4"}, []string{"fb5"}},
		{[]string{"fb5"}, []string{}},
	} {
		w := &workerState{}
		e.popClaim(w, 4)
		if got := list(w.jobs); !slices.Equal(got, step.batch) {
			t.Fatalf("batch %v, want %v", got, step.batch)
		}
		if got := list(e.queue); !slices.Equal(got, step.queue) {
			t.Fatalf("queue left %v, want %v", got, step.queue)
		}
		for _, j := range w.jobs {
			if j.state.Load() != jobClaimed {
				t.Fatalf("%s in the batch but not claimed", names[j])
			}
		}
	}
}
