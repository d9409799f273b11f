package chaos

import (
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// counter reads one registry counter mid-scenario.
func (h *harness) counter(name string) int64 {
	return h.reg.Snapshot().Counters[name]
}

// fastSupervision is the supervisor tuning every real-clock scenario
// uses: sample fast, eject fast, bound the eject drain tightly, so a
// whole ladder→eject→rebuild cycle fits inside a test-sized campaign.
func fastSupervision(o serve.Options) serve.Options {
	o.SupervisorInterval = 10 * time.Millisecond
	o.EjectAfter = 3
	o.EjectDrainTimeout = 250 * time.Millisecond
	o.QueueAgeBound = 50 * time.Millisecond
	return o
}

// poisonedShardZero returns a ShardEngine hook that arms every worker
// of shard 0 with a gated stuck-at fault in the multiplier pipeline.
// The shared armed switch opens and closes the fault window on the
// live engine — and on any engine the supervisor rebuilds in its
// place while the window is still open.
func poisonedShardZero(armed *atomic.Bool, reg *telemetry.Registry) func(int, engine.Options) engine.Options {
	return func(shardID int, o engine.Options) engine.Options {
		if shardID == 0 {
			o.Injector = func(worker int) rtl.Injector {
				return fault.NewGate(fault.NewInjector([]fault.Fault{
					{Site: fault.SitePipeMul, Kind: fault.KindStuckAt1, Bit: 7},
				}, reg), armed)
			}
		}
		return o
	}
}

// runFaultyShard drives the full degradation ladder on one shard: a
// persistent datapath fault poisons shard 0 mid-campaign, validation
// catches every corruption (so clients keep getting right answers on
// the software fallback), the breaker trips, the supervisor ejects and
// rebuilds the shard, and once the fault clears the fleet recovers to
// pre-fault goodput.
func runFaultyShard(h *harness) {
	fleet := func(armed *atomic.Bool, reg *telemetry.Registry) serve.Options {
		return fastSupervision(serve.Options{
			Shards:   2,
			Registry: reg,
			Engine: engine.Options{
				Workers: 2, MaxAttempts: 2, QuarantineAfter: 2,
				BreakerWindow: 4, BreakerThreshold: 0.75,
			},
			ShardEngine: poisonedShardZero(armed, reg),
		})
	}
	var armed atomic.Bool
	if err := h.start(fleet(&armed, telemetry.NewRegistry())); err != nil {
		h.violate("server failed to start: %v", err)
		return
	}
	n := h.opts.Requests
	h.phase("warmup", n/2, 4, 0, 0)
	h.phase("pre", n, 4, 0, 0)

	armed.Store(true)
	h.phase("during", n, 4, 0, 0)
	// Keep probe traffic flowing under the fault until the supervisor
	// ejects the poisoned shard (bounded; the rebuilt shard re-poisons
	// while the window is open, which is fine — the counter only grows).
	deadline := time.Now().Add(recoveryBound)
	for i := 0; h.counter("serve.shard_ejected") == 0; i++ {
		if !time.Now().Before(deadline) {
			h.violate("supervisor never ejected the poisoned shard within %v", recoveryBound)
			break
		}
		h.trickleOne("during", i)
		time.Sleep(2 * time.Millisecond)
	}
	armed.Store(false)

	h.awaitRecovery("recover")
	h.phase("settle", n/2, 4, 0, 0) // absorb rebuild/teardown turbulence unmeasured
	h.measureRecovery(fleet(new(atomic.Bool), telemetry.NewRegistry()), n, 4, 0)
}

// runStalledShard wedges shard 0's workers inside the engine's
// ExecHook — requests claimed there neither fail nor finish — and
// checks that hedged dispatch answers from the healthy shard while the
// supervisor's queue-age signal ejects the stalled one. The wedge is
// released after a bounded window so claimed jobs resolve exactly once.
func runStalledShard(h *harness) {
	fleet := func(stall *atomic.Pointer[chan struct{}]) serve.Options {
		return fastSupervision(serve.Options{
			Shards:     2,
			Engine:     engine.Options{Workers: 2, QueueDepth: 64},
			HedgeDelay: 20 * time.Millisecond,
			ShardEngine: func(shardID int, o engine.Options) engine.Options {
				if shardID == 0 {
					o.ExecHook = func(worker int) {
						if ch := stall.Load(); ch != nil {
							<-*ch
						}
					}
				}
				return o
			},
		})
	}
	var stall atomic.Pointer[chan struct{}]
	if err := h.start(fleet(&stall)); err != nil {
		h.violate("server failed to start: %v", err)
		return
	}
	n := h.opts.Requests
	h.phase("warmup", n/2, 4, 0, 0)
	h.phase("pre", n, 4, 0, 0)

	gate := make(chan struct{})
	stall.Store(&gate)
	h.manualFaults.Add(1)
	done := make(chan struct{})
	go func() {
		h.phase("during", n, 4, 400*time.Millisecond, 0)
		close(done)
	}()
	// Hold the stall window for a bounded time, then release the wedge:
	// a request whose primary was claimed by a wedged worker and whose
	// hedge was skipped can only resolve once the gate opens.
	select {
	case <-done:
	case <-time.After(1500 * time.Millisecond):
	}
	stall.Store(nil)
	close(gate)
	<-done

	if h.counter("serve.hedge_wins") == 0 {
		h.violate("no hedge ever won against the stalled shard")
	}
	h.awaitRecovery("recover")
	h.phase("settle", n/2, 4, 0, 0) // absorb wedge-release/teardown turbulence unmeasured
	h.measureRecovery(fleet(new(atomic.Pointer[chan struct{}])), n, 4, 0)
}

// skewClock is a serve.Clock whose Now jumps by an adjustable offset
// while timers keep running on real time — a wall-clock step (NTP
// correction, VM migration) as the serving stack sees one.
type skewClock struct {
	offset atomic.Int64
}

func (c *skewClock) Now() time.Time {
	return time.Now().Add(time.Duration(c.offset.Load()))
}

func (c *skewClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// runClockSkew steps the serving clock an hour forward, then two hours
// backward, under multi-tenant load on dynamic buckets. The invariants
// are that skew is absorbed as leniency, never lockout or wrong
// answers: token buckets self-heal, admission keeps answering, and
// goodput recovers once the clock is sane again.
func runClockSkew(h *harness) {
	fleet := func(clk *skewClock) serve.Options {
		return fastSupervision(serve.Options{
			Shards:          2,
			Engine:          engine.Options{Workers: 2},
			Clock:           clk,
			DefaultTenant:   &serve.TenantLimit{Rate: 5000, Burst: 64},
			TenantCacheSize: 16,
			TenantIdleTTL:   time.Minute,
		})
	}
	clk := &skewClock{}
	if err := h.start(fleet(clk)); err != nil {
		h.violate("server failed to start: %v", err)
		return
	}
	n := h.opts.Requests
	h.phase("warmup", n/2, 4, 0, 3)
	h.phase("pre", n, 4, 0, 3)

	clk.offset.Store(int64(time.Hour))
	h.manualFaults.Add(1)
	h.phase("during", n, 4, 0, 3)

	clk.offset.Store(int64(-2 * time.Hour))
	h.manualFaults.Add(1)
	h.phase("during", n, 4, 0, 3)

	clk.offset.Store(0)
	h.awaitRecovery("recover")
	h.phase("settle", n/2, 4, 0, 3) // one request per bucket re-anchors its refill clock
	h.measureRecovery(fleet(&skewClock{}), n, 4, 3)
}

// runSaturation offers load far past the shed high-water mark of a
// deliberately small engine queue. The invariant under overload is the
// layering: admission sheds (503) strictly before the engine's own
// backpressure can fire — serve.engine_rejected stays zero — and
// goodput returns to baseline the moment the burst ends. The burst
// offers rounds of 4n requests from 32 clients until admission has shed
// (bounded by recoveryBound): the clients share the CPU with a running
// engine, and on a fast datapath one round does not always get ahead of
// it.
func runSaturation(h *harness) {
	fleet := func() serve.Options {
		return serve.Options{
			Shards:             2,
			Engine:             engine.Options{Workers: 1, QueueDepth: 8},
			ShedHighWater:      0.5,
			SupervisorInterval: 10 * time.Millisecond,
		}
	}
	if err := h.start(fleet()); err != nil {
		h.violate("server failed to start: %v", err)
		return
	}
	n := h.opts.Requests
	h.phase("warmup", n/2, 4, 0, 0)
	h.phase("pre", n, 4, 0, 0)

	h.manualFaults.Add(1)
	deadline := time.Now().Add(recoveryBound)
	burst := h.phase("burst", 4*n, 32, 0, 0)
	for burst.Shed == 0 && time.Now().Before(deadline) {
		burst = h.phase("burst", 4*n, 32, 0, 0)
	}
	if burst.Shed == 0 {
		h.violate("saturation burst was never shed (admission control idle)")
	}

	h.phase("settle", n/2, 4, 0, 0) // let the queues fully drain unmeasured
	h.measureRecovery(fleet(), n, 4, 0)
}

// runDrainDuringFailure starts a graceful drain while a datapath fault
// is actively firing on one shard: every request admitted before the
// drain must still be answered exactly once (correctly, via the
// ladder), every request after it must see a clean 503 "draining", and
// AwaitDrain must reach idle — a fault window must never wedge a
// shutdown. No recovery phase: the scenario ends inside the fault.
func runDrainDuringFailure(h *harness) {
	var armed atomic.Bool
	reg := telemetry.NewRegistry()
	err := h.start(fastSupervision(serve.Options{
		Shards:   2,
		Registry: reg,
		Engine: engine.Options{
			Workers: 2, MaxAttempts: 2, QuarantineAfter: 4,
			BreakerWindow: 8, BreakerThreshold: 0.75,
		},
		ShardEngine: poisonedShardZero(&armed, reg),
	}))
	if err != nil {
		h.violate("server failed to start: %v", err)
		return
	}
	n := h.opts.Requests
	h.phase("warmup", n/2, 4, 0, 0)
	h.phase("pre", n, 4, 0, 0)

	armed.Store(true)
	done := make(chan struct{})
	go func() {
		h.phase("during", 2*n, 4, 0, 0)
		close(done)
	}()
	// Let the fault bite mid-traffic, then pull the plug.
	time.Sleep(30 * time.Millisecond)
	h.srv.StartDrain()
	<-done
	if err := h.srv.AwaitDrain(5 * time.Second); err != nil {
		h.violate("drain did not complete under an active fault: %v", err)
	}
	armed.Store(false)
}
