// Package engine is the serving layer over the modeled cryptoprocessor:
// a concurrent batch scalar-multiplication service. One Engine owns a
// pool of workers, each with an independent core.Executor over a shared
// (immutable, cache-deduplicated) core.Processor, so many scalar
// multiplications proceed in parallel without locking the datapath
// model. Requests enter through Submit / SubmitBatch against a bounded
// queue: when the queue is full the engine rejects with ErrQueueFull
// (backpressure) instead of growing without bound, and a caller's
// context cancellation abandons work that has not yet been claimed by a
// worker.
//
// Every engine reports into an internal/telemetry Registry (queue depth
// and in-flight gauges, submitted/completed/canceled/rejected counters,
// an end-to-end latency histogram), and the counters reconcile exactly:
// after the engine drains, submitted == completed + canceled.
//
// The engine is self-checking and degrades gracefully when the modeled
// datapath misbehaves (internal/fault can make it misbehave on demand).
// Every RTL result passes end-of-run validation (Options.Validate,
// on-curve by default); a rejected result is retried with exponential
// backoff and seeded jitter (bounded by Options.MaxAttempts), a worker
// that keeps producing detected faults is quarantined onto the software
// path, and a circuit breaker trips the whole pool off the RTL path
// when the recent detected-fault rate crosses a threshold. The last
// rung of the ladder is a per-request software fallback, so an accepted
// request is always answered, and always answered correctly — a sick
// datapath costs throughput and Result.Backend provenance, never
// answers. See docs/FAULTS.md for the full detection/degradation model.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/telemetry"
)

var (
	// ErrClosed is returned by submissions to a closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrQueueFull is the backpressure signal: the bounded queue cannot
	// take the submission. Callers should retry later or shed load.
	ErrQueueFull = errors.New("engine: queue full")
)

// Options sizes an Engine.
type Options struct {
	// Workers is the worker-pool size; each worker owns an independent
	// RTL executor. Defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of accepted-but-unclaimed requests.
	// Submissions beyond it fail fast with ErrQueueFull. Defaults to
	// 4 * Workers.
	QueueDepth int
	// MetricsNamespace prefixes every metric the engine registers
	// ("engine" when empty). A serving layer running several engine
	// shards against one shared Registry gives each shard its own
	// namespace ("engine.shard0", "engine.shard1", ...) so per-shard
	// counters never collide. Metric names in docs/ENGINE.md are listed
	// under the default namespace.
	MetricsNamespace string
	// Registry receives the engine's metrics (a fresh registry is
	// created when nil). Metric names are listed in docs/ENGINE.md.
	Registry *telemetry.Registry
	// Verify cross-checks every result against the pure functional
	// curve model (the differential oracle). Roughly doubles the cost
	// of a request; meant for soak tests and acceptance runs. It is
	// shorthand for Validate = core.ValidateOracle and wins over
	// Validate when set.
	Verify bool
	// Validate selects the end-of-run check applied to every RTL
	// result. The zero value is core.ValidateOnCurve: self-checking is
	// the default, and core.ValidateNone must be asked for explicitly.
	Validate core.Validate
	// MaxAttempts bounds RTL tries per request (first try included)
	// before the request falls back to the software backend. Default 3.
	MaxAttempts int
	// BackoffBase / BackoffMax shape the exponential backoff slept
	// between RTL retries (base << attempt, capped at max, with seeded
	// jitter). Defaults 200µs / 10ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffSeed seeds the per-worker jitter streams; retry timing is
	// deterministic per (seed, worker).
	BackoffSeed int64
	// Clock drives backoff sleeps and breaker cooldowns; tests inject a
	// fake. Defaults to the real time.
	Clock Clock
	// QuarantineAfter permanently moves a worker onto the software
	// backend after that many consecutive detected-fault runs (a worker
	// whose datapath instance keeps lying is presumed defective, not
	// unlucky). 0 defaults to 16; negative disables quarantine.
	QuarantineAfter int
	// BreakerWindow is the sliding window (in RTL attempts, pool-wide)
	// over which the circuit breaker measures the detected-fault rate.
	// 0 defaults to 64; negative disables the breaker.
	BreakerWindow int
	// BreakerThreshold is the detected-fault fraction of a full window
	// at which the breaker opens and the pool degrades to the software
	// backend. Defaults to 0.5.
	BreakerThreshold float64
	// BreakerCooldown is how long an open breaker waits before letting
	// one half-open probe back onto the RTL path. Defaults to 100ms.
	BreakerCooldown time.Duration
	// Injector, when non-nil, arms worker i's executor with
	// Injector(i) — the fault-campaign hook (see internal/fault).
	Injector func(worker int) rtl.Injector
	// LaneWidth is how many queued jobs a worker drains and executes in
	// one lockstep pass of the compiled schedule
	// (core.Executor.ScalarMultLanes); above 1 this coalesces requests,
	// amortizing the schedule walk across the batch. Every width runs the
	// same worker loop and lockstep path, a lone job as a one-lane batch.
	// Results and errors stay per-request and are delivered exactly-once
	// through the same job plumbing; a lane that fails validation
	// re-enters the retry ladder alone. Default 1 (no coalescing).
	LaneWidth int
	// FlushDeadline bounds how long a lane worker waits for lane-mates
	// when it holds a partial batch: once it expires the batch runs at
	// whatever width it reached, so a lone request is never held hostage.
	// Driven by Clock (tests inject a fake). Defaults to 200µs when
	// LaneWidth > 1; negative disables waiting (run immediately with
	// whatever was queued).
	FlushDeadline time.Duration
	// Trace, when non-nil, receives per-request lifecycle spans —
	// admission, queue wait, lane fill, each execute attempt, the
	// validation verdict, delivery — as Chrome trace_event slices (track
	// 0 is the queue timeline, track w+1 is worker w). nil disables
	// tracing entirely, and the disabled path allocates nothing.
	Trace *telemetry.Recorder
	// TraceSampleRate is the fraction of requests traced when Trace is
	// set: 1 traces every request, 0.25 every fourth (deterministic
	// 1-in-stride sampling, stride = round(1/rate), shared across
	// submitters). <= 0 defaults to 1.
	TraceSampleRate float64
	// FlightRecorder receives structured lifecycle events (admit,
	// execute, retry, fallback, deliver, lane runs, breaker and
	// quarantine transitions) and is snapshotted into a post-mortem dump
	// automatically on anomalies: validation failure (of a lockstep lane
	// or a retry), breaker trip, worker quarantine. nil creates a private
	// DefaultFlightSize recorder; either way it is reachable via
	// Engine.Flight.
	FlightRecorder *telemetry.FlightRecorder
	// ExecHook, when non-nil, is called by a worker after it has claimed
	// work and immediately before executing it (once per lockstep batch;
	// a lone job is a batch of one).
	// It is the deterministic chaos hook for modeling a stalled shard: a
	// hook that blocks stalls this engine's workers with work claimed,
	// which backs the queue up without dropping anything — exactly the
	// failure mode a supervising dispatcher has to detect from outside
	// (see internal/chaos). The hook runs on the worker goroutine; it
	// must eventually return or Close will wait forever.
	ExecHook func(worker int)
}

// Backend identifies which datapath produced a Result.
type Backend uint8

const (
	// BackendRTL: the cycle-accurate RTL model produced (and validation
	// accepted) the result.
	BackendRTL Backend = iota
	// BackendSoftware: the functional curve model produced the result —
	// the request fell through retry, quarantine, or an open breaker.
	BackendSoftware
)

// String names the backend as used in logs and reports.
func (b Backend) String() string {
	if b == BackendSoftware {
		return "software"
	}
	return "rtl"
}

// Class routes a request to its cheapest microprogram. The two classes
// never share a lockstep lane batch: coalescing keeps lanes
// program-homogeneous (every lane of a batch walks the same schedule),
// cutting a batch short at a class boundary rather than mixing.
type Class uint8

const (
	// ClassVariableBase: the generic variable-base program, any base
	// point ([k]P). The zero value, so untagged requests keep today's
	// behavior.
	ClassVariableBase Class = iota
	// ClassFixedBase: the fixed-base comb program for [k]G — the signing
	// workload's commitment multiplication. Requests of this class
	// ignore Base (the comb's tables are baked in for the generator).
	// On a processor built without core.Config.FixedBase the executor
	// degrades gracefully to the variable-base program.
	ClassFixedBase
)

// String names the class as used in logs and reports.
func (c Class) String() string {
	if c == ClassFixedBase {
		return "fixedbase"
	}
	return "variablebase"
}

// Request is one scalar multiplication [K]Base. The zero-value Base
// (which is not a curve point) selects the generator. Class selects the
// microprogram: ClassFixedBase rides the comb program and computes
// [K]G regardless of Base.
type Request struct {
	K     scalar.Scalar
	Base  curve.Affine
	Class Class
}

// Result carries the affine product and the datapath statistics of the
// run that produced it (Stats is zero for BackendSoftware results).
// Attempts counts RTL tries made for the request — 0 when the worker
// was quarantined or the breaker was open before the first try.
type Result struct {
	Point    curve.Affine
	Stats    rtl.Stats
	Backend  Backend
	Attempts int
	Err      error
}

// Job lifecycle: a submitted job is pending until either a worker claims
// it (then exactly one Result is delivered on done) or the submitter
// cancels it (then nothing is ever sent on done).
const (
	jobPending int32 = iota
	jobClaimed
	jobCanceled
)

type job struct {
	req   Request
	id    uint64 // engine-assigned request id (1-based, monotone)
	state atomic.Int32
	done  chan Result // buffered 1; sent exactly once iff claimed
	enq   time.Time
	claim time.Time // stamped by the claiming worker (queue exit)
	span  *reqSpan  // nil when unsampled or tracing is off
}

// Engine is a concurrent batch scalar-multiplication service. Create
// with New or NewWithProcessor; all methods are safe for concurrent use.
type Engine struct {
	proc     *core.Processor
	opts     Options
	validate core.Validate
	clock    Clock
	brk      *breaker

	trace       *telemetry.Recorder
	traceStride uint64
	traceCtr    atomic.Uint64
	reqSeq      atomic.Uint64
	fr          *telemetry.FlightRecorder

	// load counts accepted-but-unresolved requests (queued plus claimed
	// in-flight): +1 per accepted submission, -1 on delivery or
	// cancellation. It is the cheap shard-load signal a dispatcher reads
	// on every request, so it lives outside the mutex-guarded queue.
	load atomic.Int64

	// Health-surface counters. These deliberately shadow the registry
	// counters: metrics namespaces are reused when a supervisor rebuilds
	// a shard engine (cumulative exposition), while these atomics are
	// per-engine-instance, so a replacement engine starts its health
	// history clean.
	quarCount atomic.Int64
	valFails  atomic.Int64
	doneCount atomic.Int64

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*job
	closed bool

	wg sync.WaitGroup

	submitted   *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	rejected    *telemetry.Counter
	canceled    *telemetry.Counter
	retries     *telemetry.Counter
	valFailed   *telemetry.Counter
	fallbacks   *telemetry.Counter
	quarantined *telemetry.Counter
	laneRuns    *telemetry.Counter
	laneLanes   *telemetry.Counter
	flushHits   *telemetry.Counter
	classBreaks *telemetry.Counter
	fbDone      *telemetry.Counter
	vbDone      *telemetry.Counter
	depth       *telemetry.Gauge
	inFlight    *telemetry.Gauge
	laneFill    *telemetry.Gauge
	active      *telemetry.Gauge
	latency     *telemetry.Histogram
	queueWait   *telemetry.Histogram
	laneFillH   *telemetry.Histogram
	execH       *telemetry.Histogram
}

// workerState is one pool member: an executor plus its local failure
// accounting. Only its owning goroutine touches it.
type workerState struct {
	id           int
	ex           *core.Executor
	rng          jitterRNG
	consecFaults int
	quarantined  bool
	stateGauge   *telemetry.Gauge // engine.worker_<id>_state: 0 active, 1 quarantined
	// Lane scratch, sized to Options.LaneWidth once at construction so
	// the steady-state batch path allocates nothing.
	jobs  []*job
	ks    []scalar.Scalar
	bases []curve.Affine
	outs  []curve.Affine
	lerrs []error
}

// New builds (or fetches from the process-wide cache — see
// CachedProcessor) the processor for cfg and starts an engine over it.
func New(cfg core.Config, opts Options) (*Engine, error) {
	p, err := CachedProcessor(cfg)
	if err != nil {
		return nil, err
	}
	return NewWithProcessor(p, opts), nil
}

// NewWithProcessor starts an engine over an already-built processor.
func NewWithProcessor(p *core.Processor, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.Workers
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 200 * time.Microsecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 10 * time.Millisecond
	}
	if opts.Clock == nil {
		opts.Clock = realClock{}
	}
	if opts.QuarantineAfter == 0 {
		opts.QuarantineAfter = 16
	}
	if opts.BreakerWindow == 0 {
		opts.BreakerWindow = 64
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 0.5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 100 * time.Millisecond
	}
	if opts.LaneWidth <= 0 {
		opts.LaneWidth = 1
	}
	if opts.FlushDeadline == 0 && opts.LaneWidth > 1 {
		opts.FlushDeadline = 200 * time.Microsecond
	}
	if opts.FlightRecorder == nil {
		opts.FlightRecorder = telemetry.NewFlightRecorder(0)
	}
	stride := uint64(1)
	if opts.Trace != nil && opts.TraceSampleRate > 0 && opts.TraceSampleRate < 1 {
		stride = uint64(math.Round(1 / opts.TraceSampleRate))
		if stride < 1 {
			stride = 1
		}
	}
	ns := opts.MetricsNamespace
	if ns == "" {
		ns = "engine"
	}
	reg := opts.Registry
	e := &Engine{
		proc:        p,
		opts:        opts,
		validate:    opts.Validate,
		clock:       opts.Clock,
		trace:       opts.Trace,
		traceStride: stride,
		fr:          opts.FlightRecorder,
		submitted:   reg.Counter(ns + ".submitted"),
		completed:   reg.Counter(ns + ".completed"),
		failed:      reg.Counter(ns + ".failed"),
		rejected:    reg.Counter(ns + ".rejected"),
		canceled:    reg.Counter(ns + ".canceled"),
		retries:     reg.Counter(ns + ".retries"),
		valFailed:   reg.Counter(ns + ".validation_failed"),
		fallbacks:   reg.Counter(ns + ".fallback_completed"),
		quarantined: reg.Counter(ns + ".workers_quarantined"),
		laneRuns:    reg.Counter(ns + ".lane_runs"),
		laneLanes:   reg.Counter(ns + ".lane_lanes"),
		flushHits:   reg.Counter(ns + ".flush_deadline_hits"),
		classBreaks: reg.Counter(ns + ".lane_class_breaks"),
		fbDone:      reg.Counter(ns + ".completed_fixedbase"),
		vbDone:      reg.Counter(ns + ".completed_variablebase"),
		depth:       reg.Gauge(ns + ".queue_depth"),
		inFlight:    reg.Gauge(ns + ".in_flight"),
		laneFill:    reg.Gauge(ns + ".lane_fill_ratio"),
		active:      reg.Gauge(ns + ".workers_active"),
		latency: reg.Histogram(ns+".latency_seconds",
			0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5),
		queueWait: reg.Histogram(ns+".queue_wait_seconds",
			0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1),
		laneFillH: reg.Histogram(ns+".lane_fill_seconds",
			0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1),
		execH: reg.Histogram(ns+".execute_seconds",
			0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25),
	}
	if opts.Verify {
		e.validate = core.ValidateOracle
	}
	if opts.BreakerWindow > 0 {
		e.brk = newBreaker(opts.BreakerWindow, opts.BreakerThreshold, opts.BreakerCooldown, reg, ns)
		// A breaker transition is exactly the moment a post-mortem wants
		// the events leading up to it, so trips snapshot the flight ring.
		e.brk.onTrip = func() {
			e.fr.Record("breaker_open", -1, 0, 0, "")
			e.fr.Anomaly("breaker_open")
		}
		e.brk.onClose = func() {
			e.fr.Record("breaker_close", -1, 0, 0, "")
		}
	}
	// Dump metadata: enough of the engine's configuration that an
	// anomaly dump is interpretable (and replayable) on its own.
	e.fr.SetMeta("workers", opts.Workers)
	e.fr.SetMeta("queue_depth", opts.QueueDepth)
	e.fr.SetMeta("lane_width", opts.LaneWidth)
	e.fr.SetMeta("max_attempts", opts.MaxAttempts)
	e.fr.SetMeta("backoff_seed", opts.BackoffSeed)
	e.fr.SetMeta("quarantine_after", opts.QuarantineAfter)
	e.fr.SetMeta("breaker_window", opts.BreakerWindow)
	e.active.Set(float64(opts.Workers))
	if e.trace != nil {
		e.trace.ThreadName(traceQueueTID, "engine queue")
		for i := 0; i < opts.Workers; i++ {
			e.trace.ThreadName(workerTID(i), fmt.Sprintf("engine worker %d", i))
		}
	}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < opts.Workers; i++ {
		ex := p.NewExecutor()
		if opts.Injector != nil {
			ex.SetInjector(opts.Injector(i))
		}
		w := &workerState{
			id:         i,
			ex:         ex,
			rng:        jitterRNG(uint64(opts.BackoffSeed) ^ uint64(i+1)*0x9E3779B97F4A7C15),
			stateGauge: reg.Gauge(fmt.Sprintf("%s.worker_%d_state", ns, i)),
		}
		w.stateGauge.Set(0)
		lw := opts.LaneWidth
		w.jobs = make([]*job, 0, lw)
		w.ks = make([]scalar.Scalar, 0, lw)
		w.bases = make([]curve.Affine, 0, lw)
		w.outs = make([]curve.Affine, lw)
		w.lerrs = make([]error, lw)
		e.wg.Add(1)
		// Label the worker goroutine so CPU profiles taken off the debug
		// endpoint attribute samples to pool members.
		go func(w *workerState) {
			pprof.Do(context.Background(), pprof.Labels("engine_worker", strconv.Itoa(w.id)),
				func(context.Context) { e.workerLanes(w) })
		}(w)
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Load reports the number of accepted requests not yet resolved (queued
// plus claimed in-flight). It is the dispatch signal a sharding layer
// reads per request: monotone under contention (atomic, no queue lock)
// and exact at quiescence.
func (e *Engine) Load() int64 { return e.load.Load() }

// QueueCap returns the bounded queue's capacity (Options.QueueDepth
// after defaulting) — the denominator an admission controller needs to
// shed load before Submit starts returning ErrQueueFull.
func (e *Engine) QueueCap() int { return e.opts.QueueDepth }

// Health is a point-in-time snapshot of the engine's degradation state,
// the introspection surface a supervising dispatcher scores shards
// with. Every field is cheap to sample (atomics plus one short
// queue-lock hold) and scoped to this engine instance: a rebuilt
// replacement engine reports a clean history even though its metrics
// namespace (cumulative by design) is inherited.
type Health struct {
	// Workers is the pool size; Quarantined of them have been benched
	// permanently onto the software backend.
	Workers     int
	Quarantined int
	// BreakerOpen reports that the pool-wide circuit breaker is holding
	// the whole engine off the RTL path.
	BreakerOpen bool
	// ValidationFailures and Completed are lifetime totals for this
	// instance; a supervisor turns consecutive samples into a recent
	// failure rate.
	ValidationFailures int64
	Completed          int64
	// QueueDepth / QueueCap describe the bounded queue right now, and
	// OldestQueueAge is how long the head-of-line request has been
	// waiting unclaimed — the signal that distinguishes a stalled shard
	// (workers wedged, age grows without bound) from a merely busy one.
	QueueDepth     int
	QueueCap       int
	OldestQueueAge time.Duration
	// Load is accepted-but-unresolved work (queued plus in-flight).
	Load int64
}

// Health samples the engine's degradation state.
func (e *Engine) Health() Health {
	h := Health{
		Workers:            e.opts.Workers,
		Quarantined:        int(e.quarCount.Load()),
		BreakerOpen:        e.brk.isOpen(),
		ValidationFailures: e.valFails.Load(),
		Completed:          e.doneCount.Load(),
		QueueCap:           e.opts.QueueDepth,
		Load:               e.load.Load(),
	}
	e.mu.Lock()
	h.QueueDepth = len(e.queue)
	if h.QueueDepth > 0 {
		h.OldestQueueAge = time.Since(e.queue[0].enq)
	}
	e.mu.Unlock()
	return h
}

// Processor returns the shared processor instance the engine runs on.
func (e *Engine) Processor() *core.Processor { return e.proc }

// Metrics returns the registry the engine reports into.
func (e *Engine) Metrics() *telemetry.Registry { return e.opts.Registry }

// Flight returns the engine's flight recorder (always non-nil: the
// engine creates a private one when Options.FlightRecorder is nil).
// Serve it over HTTP with telemetry.ServeDebug, or inspect Dumps after
// a failure.
func (e *Engine) Flight() *telemetry.FlightRecorder { return e.fr }

// Submit enqueues one request and waits for its result. It fails fast
// with ErrQueueFull when the bounded queue cannot take the request and
// with ErrClosed after Close. If ctx is done before a worker claims the
// request, the request is abandoned and ctx.Err() returned; if a worker
// has already claimed it, Submit delivers that worker's result (the
// datapath run is milliseconds — results are never silently dropped).
func (e *Engine) Submit(ctx context.Context, req Request) (Result, error) {
	js, err := e.enqueue(ctx, req)
	if err != nil {
		return Result{}, err
	}
	return e.await(ctx, js[0])
}

// SubmitBatch enqueues all requests as one unit — either the whole
// batch is accepted or none of it is (an over-full queue rejects with
// ErrQueueFull without partial enqueue) — then waits for every result.
// The returned slice always has len(reqs) entries on acceptance;
// per-request failures are carried in Result.Err, and the returned
// error is the first of them (or ctx.Err() if the batch was cut short).
func (e *Engine) SubmitBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	js, err := e.enqueue(ctx, reqs...)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(js))
	var firstErr error
	for i, j := range js {
		r, err := e.await(ctx, j)
		if err != nil && r.Err == nil {
			r.Err = err
		}
		out[i] = r
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// ScalarMult is a convenience Submit of [k]G.
func (e *Engine) ScalarMult(ctx context.Context, k scalar.Scalar) (curve.Affine, error) {
	r, err := e.Submit(ctx, Request{K: k})
	return r.Point, err
}

// ScalarMultAffine submits [k]Base and returns the affine result. It is
// the schnorrq.ScalarMulter backend, letting signature schemes route
// their curve operations through the engine.
func (e *Engine) ScalarMultAffine(ctx context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error) {
	r, err := e.Submit(ctx, Request{K: k, Base: base})
	return r.Point, err
}

// ScalarMultFixedBase submits [k]G as a fixed-base-class request, riding
// the comb microprogram when the processor carries it. It is the
// schnorrq.FixedBaseScalarMulter backend: signing's commitment
// multiplication takes its cheapest schedule while verification stays
// on the variable-base program.
func (e *Engine) ScalarMultFixedBase(ctx context.Context, k scalar.Scalar) (curve.Affine, error) {
	r, err := e.Submit(ctx, Request{K: k, Class: ClassFixedBase})
	return r.Point, err
}

// Close stops accepting submissions, lets the workers drain the queue,
// and waits for them to exit. It is idempotent and safe to race with
// itself and with in-flight Submit/SubmitBatch calls: a submission
// either loses the race and gets ErrClosed, or wins it and is fully
// served before the workers exit (the drain loop never abandons an
// accepted job).
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	e.wg.Wait() // safe for any number of concurrent waiters
}

// enqueue atomically appends all reqs to the bounded queue. A context
// that is already done never enqueues (deterministic: the datapath will
// not run for a caller that has left); such requests touch no counter,
// so the telemetry invariant submitted == completed + canceled is over
// accepted requests only.
func (e *Engine) enqueue(ctx context.Context, reqs ...Request) ([]*job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now()
	js := make([]*job, len(reqs))
	for i, r := range reqs {
		j := &job{req: r, id: e.reqSeq.Add(1), done: make(chan Result, 1), enq: now}
		// Span and flight stamps happen before the job is visible to
		// workers, so the claim side never races the admission write.
		j.span = e.newSpan()
		e.spanAdmit(j)
		e.fr.Record("admit", -1, j.id, 0, "")
		js[i] = j
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if len(e.queue)+len(js) > e.opts.QueueDepth {
		e.mu.Unlock()
		e.rejected.Add(int64(len(js)))
		for _, j := range js {
			e.spanReject(j)
			e.fr.Record("reject", -1, j.id, 0, "queue_full")
		}
		return nil, ErrQueueFull
	}
	e.queue = append(e.queue, js...)
	e.depth.Set(float64(len(e.queue)))
	if len(js) == 1 {
		e.cond.Signal()
	} else {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	e.submitted.Add(int64(len(js)))
	e.load.Add(int64(len(js)))
	return js, nil
}

// await blocks until j resolves: a worker's result, or cancellation
// while still pending.
func (e *Engine) await(ctx context.Context, j *job) (Result, error) {
	select {
	case r := <-j.done:
		return r, r.Err
	case <-ctx.Done():
		if j.state.CompareAndSwap(jobPending, jobCanceled) {
			e.canceled.Inc()
			e.load.Add(-1)
			return Result{}, ctx.Err()
		}
		// A worker won the race: its result is already being computed
		// and will arrive; deliver it rather than losing it.
		r := <-j.done
		return r, r.Err
	}
}

// deliver resolves one claimed job: exactly one Result on done, with
// the in-flight/latency/completion accounting.
func (e *Engine) deliver(j *job, r Result) {
	e.load.Add(-1)
	e.inFlight.Add(-1)
	e.latency.Observe(time.Since(j.enq).Seconds())
	if r.Err != nil {
		e.failed.Inc()
	}
	e.completed.Inc()
	// Per-program provenance: which microprogram class served the
	// request (the serving layer's routing is visible here end-to-end).
	if j.req.Class == ClassFixedBase {
		e.fbDone.Inc()
	} else {
		e.vbDone.Inc()
	}
	e.doneCount.Add(1)
	e.spanDeliver(j, r)
	e.fr.Record("deliver", -1, j.id, r.Attempts, r.Backend.String())
	j.done <- r
}

// workerLanes is the worker loop: drain up to LaneWidth jobs, run them
// in one lockstep pass on the worker's own executor, deliver per lane.
func (e *Engine) workerLanes(w *workerState) {
	defer e.wg.Done()
	for {
		jobs := e.collect(w)
		if len(jobs) == 0 {
			return
		}
		e.inFlight.Add(float64(len(jobs)))
		if e.opts.ExecHook != nil {
			e.opts.ExecHook(w.id)
		}
		e.executeLanes(w, jobs)
	}
}

// collect claims up to LaneWidth queued jobs for one lockstep batch.
// It blocks for the first job; holding a partial batch it then waits
// for lane-mates in FlushDeadline/4 slices of injected-Clock sleep,
// giving up at the flush deadline (or at once when the deadline is
// negative, or when the engine closes) — so a lone request pays at most
// the deadline, never an unbounded wait.
// Returns an empty slice when the engine is closed and drained.
func (e *Engine) collect(w *workerState) []*job {
	lw := e.opts.LaneWidth
	w.jobs = w.jobs[:0]
	e.mu.Lock()
	for len(e.queue) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.queue) == 0 && e.closed {
		e.mu.Unlock()
		return nil
	}
	mixed := e.popClaim(w, lw)
	closed := e.closed
	e.mu.Unlock()
	if mixed {
		// The queue head belongs to the other program class; FIFO means
		// no lane-mate can overtake it, so dispatch what we hold.
		e.classBreaks.Inc()
		return w.jobs
	}
	if len(w.jobs) >= lw || closed || e.opts.FlushDeadline < 0 {
		if len(w.jobs) == 0 {
			// Everything popped had been canceled; go back to blocking.
			return e.collect(w)
		}
		return w.jobs
	}
	deadline := e.clock.Now().Add(e.opts.FlushDeadline)
	slice := e.opts.FlushDeadline / 4
	if slice <= 0 {
		slice = e.opts.FlushDeadline
	}
	for len(w.jobs) < lw {
		e.clock.Sleep(slice)
		e.mu.Lock()
		mixed = e.popClaim(w, lw)
		closed = e.closed
		e.mu.Unlock()
		if mixed {
			e.classBreaks.Inc()
			return w.jobs
		}
		if closed || !e.clock.Now().Before(deadline) {
			break
		}
	}
	if n := len(w.jobs); n > 0 && n < lw && !closed {
		// The flush deadline expired on a partial batch: the batch runs
		// under-full rather than holding its requests hostage.
		e.flushHits.Inc()
	}
	if len(w.jobs) == 0 {
		return e.collect(w)
	}
	return w.jobs
}

// popClaim moves queued jobs into w.jobs (up to max), claiming each;
// jobs canceled while queued are dropped — the canceler accounted for
// them. Claiming stops at a class boundary: a held batch only takes
// head-of-queue jobs of its own class, so lockstep lanes stay
// program-homogeneous without reordering the FIFO. It returns true when
// the head was left behind for that reason — no lane-mate can arrive
// ahead of it, so the caller should dispatch rather than keep waiting.
// Caller holds e.mu.
func (e *Engine) popClaim(w *workerState, max int) bool {
	mixed := false
	for len(w.jobs) < max && len(e.queue) > 0 {
		j := e.queue[0]
		if len(w.jobs) > 0 && j.req.Class != w.jobs[0].req.Class {
			mixed = true
			break
		}
		e.queue = e.queue[1:]
		if j.state.CompareAndSwap(jobPending, jobClaimed) {
			e.claimJob(j)
			w.jobs = append(w.jobs, j)
		}
	}
	e.depth.Set(float64(len(e.queue)))
	return mixed
}

// executeLanes runs one claimed batch, a lone job included. The fast
// path is a single lockstep pass counted as RTL attempt #1 for every
// lane; a lane rejected by validation re-enters the per-request
// degradation ladder (executeFrom with one attempt spent), so retry,
// quarantine, breaker, and software-fallback semantics stay per
// request. A quarantined worker or a breaker refusing the batch routes
// every job through that ladder from the start.
func (e *Engine) executeLanes(w *workerState, jobs []*job) {
	n := len(jobs)
	// Lane-occupancy accounting for every dispatch, full or partial: how
	// well coalescing is filling the datapath, and how long the batch
	// waited for lane-mates (earliest claim to dispatch).
	e.laneFill.Set(float64(n) / float64(e.opts.LaneWidth))
	e.laneFillH.Observe(time.Since(jobs[0].claim).Seconds())
	for _, j := range jobs {
		e.spanLaneFill(j, w.id, n)
	}
	if w.quarantined || !e.brk.allowRTL(e.clock.Now()) {
		for _, j := range jobs {
			e.deliver(j, e.execute(w, j))
		}
		return
	}
	// popClaim keeps batches class-homogeneous, so the first job's class
	// is the batch's class and one lockstep pass serves every lane.
	fixed := jobs[0].req.Class == ClassFixedBase
	w.ks, w.bases = w.ks[:0], w.bases[:0]
	for _, j := range jobs {
		w.ks = append(w.ks, j.req.K)
		if fixed {
			continue // the comb program's base is baked in
		}
		base := j.req.Base
		if base == (curve.Affine{}) {
			base = curve.GeneratorAffine()
		}
		w.bases = append(w.bases, base)
	}
	startUS := e.spanNowUS(jobs)
	t0 := time.Now()
	var st rtl.Stats
	var err error
	if fixed {
		st, err = w.ex.ScalarMultFixedBaseLanesValidated(w.ks, w.outs[:n], w.lerrs[:n], e.validate)
	} else {
		st, err = w.ex.ScalarMultLanesValidated(w.ks, w.bases, w.outs[:n], w.lerrs[:n], e.validate)
	}
	e.execH.Observe(time.Since(t0).Seconds())
	if err != nil {
		// Whole-batch refusal (cannot happen with well-formed scratch
		// buffers); serve every job individually rather than dropping any.
		for _, j := range jobs {
			e.deliver(j, e.execute(w, j))
		}
		return
	}
	if n > 1 {
		// Only a coalesced batch counts as a lane run: a lone request is
		// a one-lane pass, so lane_runs >= 1 proves coalescing happened.
		e.laneRuns.Inc()
		e.laneLanes.Add(int64(n))
		e.fr.Record("lane_run", w.id, 0, 1, fmt.Sprintf("lanes=%d", n))
	}
	for i, j := range jobs {
		err := w.lerrs[i]
		e.spanExecute(j, w.id, 1, BackendRTL, startUS, err == nil)
		e.spanValidate(j, w.id, err == nil)
		e.noteAttempt(w, j, 1, err)
		if err == nil {
			e.deliver(j, Result{Point: w.outs[i], Stats: st, Backend: BackendRTL, Attempts: 1})
			continue
		}
		// A detected fault in this lane only: the ladder continues it.
		e.deliver(j, e.executeFrom(w, j, 1))
	}
}

// noteAttempt does the accounting of one RTL attempt's outcome, the
// same for a lockstep lane and a ladder retry: the flight record (before
// the breaker sees the outcome, so a trip's anomaly dump always contains
// the attempt that caused it), the breaker, and this worker's
// fault streak. It reports whether the attempt quarantined the worker.
func (e *Engine) noteAttempt(w *workerState, j *job, attempt int, err error) bool {
	if err == nil {
		e.fr.Record("execute", w.id, j.id, attempt, "")
		e.brk.record(false, e.clock.Now())
		w.consecFaults = 0
		return false
	}
	// A detected fault: the validated result never leaves the worker,
	// only the failure accounting does.
	e.valFailed.Inc()
	e.valFails.Add(1)
	e.fr.Record("validation_failed", w.id, j.id, attempt, err.Error())
	e.fr.Anomaly("validation_failed")
	e.brk.record(true, e.clock.Now())
	w.consecFaults++
	if e.opts.QuarantineAfter > 0 && w.consecFaults >= e.opts.QuarantineAfter {
		e.noteQuarantine(w)
		return true
	}
	return false
}

// execute runs one request down the degradation ladder: validated RTL
// attempts with backoff between them, quarantine when this worker's
// consecutive-fault streak crosses the limit, the pool-wide breaker
// gating every attempt, and finally the functional software backend —
// which always answers, so execute never returns a Result.Err for a
// datapath fault.
func (e *Engine) execute(w *workerState, j *job) Result {
	return e.executeFrom(w, j, 0)
}

// noteQuarantine flags a worker's permanent move to the software
// backend on every surface at once: counters, the pool-size and
// per-worker gauges, the flight ring, and an automatic anomaly dump.
func (e *Engine) noteQuarantine(w *workerState) {
	w.quarantined = true
	e.quarantined.Inc()
	e.quarCount.Add(1)
	e.active.Add(-1)
	w.stateGauge.Set(1)
	e.fr.Record("worker_quarantined", w.id, 0, 0, "")
	e.fr.Anomaly("worker_quarantined")
}

// executeFrom is execute with `prior` RTL attempts already spent on the
// request (the lane path's lockstep pass counts as one): the returned
// Attempts includes them, the remaining tries continue the same
// MaxAttempts budget, and re-entering with prior > 0 first pays the
// backoff a single-path run would have slept after that failed attempt.
func (e *Engine) executeFrom(w *workerState, j *job, prior int) Result {
	req := j.req
	fixed := req.Class == ClassFixedBase
	base := req.Base
	if base == (curve.Affine{}) {
		base = curve.GeneratorAffine()
	}
	var r Result
	r.Attempts = prior
	if !w.quarantined {
		if prior > 0 && prior < e.opts.MaxAttempts {
			e.retries.Inc()
			e.fr.Record("retry", w.id, j.id, prior, "")
			e.clock.Sleep(backoffDelay(e.opts.BackoffBase, e.opts.BackoffMax, prior-1, &w.rng))
		}
		for attempt := prior; attempt < e.opts.MaxAttempts; attempt++ {
			if !e.brk.allowRTL(e.clock.Now()) {
				break
			}
			var startUS int64
			if j.span != nil {
				startUS = e.trace.NowUS()
			}
			t0 := time.Now()
			var (
				pt  curve.Affine
				st  rtl.Stats
				err error
			)
			if fixed {
				pt, st, err = w.ex.ScalarMultFixedBaseValidated(req.K, e.validate)
			} else {
				pt, st, err = w.ex.ScalarMultValidated(req.K, base, e.validate)
			}
			e.execH.Observe(time.Since(t0).Seconds())
			r.Attempts++
			e.spanExecute(j, w.id, r.Attempts, BackendRTL, startUS, err == nil)
			e.spanValidate(j, w.id, err == nil)
			if e.noteAttempt(w, j, r.Attempts, err) {
				break
			}
			if err == nil {
				r.Point, r.Stats, r.Backend = pt, st, BackendRTL
				return r
			}
			if attempt+1 < e.opts.MaxAttempts {
				e.retries.Inc()
				e.fr.Record("retry", w.id, j.id, r.Attempts, "")
				e.clock.Sleep(backoffDelay(e.opts.BackoffBase, e.opts.BackoffMax, attempt, &w.rng))
			}
		}
	}
	// Degraded path: the functional curve model is the trusted backend
	// of last resort, so no accepted request is ever dropped or answered
	// wrongly — at worst it loses RTL provenance and cycle statistics.
	e.fallbacks.Inc()
	var startUS int64
	if j.span != nil {
		startUS = e.trace.NowUS()
	}
	t0 := time.Now()
	if fixed {
		r.Point = curve.ScalarMult(req.K, curve.Generator()).Affine()
	} else {
		r.Point = curve.ScalarMult(req.K, curve.FromAffine(base)).Affine()
	}
	e.execH.Observe(time.Since(t0).Seconds())
	r.Backend = BackendSoftware
	e.spanExecute(j, w.id, r.Attempts, BackendSoftware, startUS, true)
	e.fr.Record("fallback", w.id, j.id, r.Attempts, "")
	return r
}
