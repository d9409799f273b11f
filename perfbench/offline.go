package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// The offline-batch workload: one caller in a closed loop submits
// seeded variable-base requests (distinct scalars, distinct bases) with
// Engine.SubmitBatch, every lane full. It isolates datapath throughput:
// rtl lanes, the fp2 row kernel, core and engine coalescing do the
// work; serve, schnorrq, admission and the singleton path do none.
const (
	// laneWidth and the two workers GOMAXPROCS gives on a 2-CPU host
	// are fourq-serve's defaults.
	laneWidth = 4
	// offlineBatch fills 8 lane rows on each of 2 workers. The queue is
	// sized to hold one batch (SubmitBatch refuses a batch larger than
	// the queue).
	offlineBatch = 64
	// offlineLowShare of the run submits one lane row per worker at a
	// time (the light-load latency, reported as the .low latencies).
	offlineLowShare = 0.2
	offlineLowBatch = 2 * laneWidth
)

func offlineOptions() engine.Options {
	return engine.Options{LaneWidth: laneWidth, QueueDepth: offlineBatch}
}

func setupOffline(rec *telemetry.Recorder) (func(), error) {
	eng, err := engine.New(core.Config{Telemetry: rec}, offlineOptions())
	if err != nil {
		return nil, err
	}
	return eng.Close, nil
}

// smInput is one variable-base scalar multiplication and its answer.
type smInput struct {
	req    engine.Request
	point  curve.Affine
	cycles int
	err    error
}

func offlineInputs(seed, stream uint64, n int) []smInput {
	bases := basePoints(seed, stream, n)
	in := make([]smInput, n)
	for i := range in {
		in[i].req = engine.Request{K: randScalar(newRand(seed, stream, uint64(i))), Base: bases[i]}
	}
	return in
}

// closedLoop submits in[] batch by batch, one call at a time, until dur
// has passed or the inputs run out. It returns the latency of each call
// in ms and the number of inputs submitted.
func closedLoop(t target, in []smInput, batch int, dur time.Duration) ([]float64, int, time.Duration) {
	ctx := context.Background()
	reqs := make([]engine.Request, batch)
	var lat []float64
	start := time.Now()
	n := 0
	for n+batch <= len(in) && time.Since(start) < dur {
		for i := range reqs {
			reqs[i] = in[n+i].req
		}
		t0 := time.Now()
		res, err := t.submitBatch(ctx, reqs)
		lat = append(lat, float64(time.Since(t0))/1e6)
		for i := range reqs {
			if i < len(res) {
				in[n+i].point, in[n+i].cycles, in[n+i].err = res[i].Point, res[i].Stats.Cycles, res[i].Err
			} else {
				in[n+i].err = err
			}
		}
		n += batch
	}
	return lat, n, time.Since(start)
}

// checkSMs compares every answer with the software oracle.
func checkSMs(rep *report, in []smInput) {
	msgs := make([]string, len(in))
	errs := make([]bool, len(in))
	parallel(len(in), func(i int) {
		s := &in[i]
		if s.err != nil {
			errs[i] = true
			return
		}
		want := curve.ScalarMult(s.req.K, curve.FromAffine(s.req.Base)).Affine()
		if !s.point.X.Equal(want.X) || !s.point.Y.Equal(want.Y) {
			msgs[i] = fmt.Sprintf("offline SM %d: [%v]P differs from the oracle", i, s.req.K)
		}
	})
	for i := range in {
		if errs[i] {
			rep.errored++
		} else if msgs[i] != "" {
			rep.mismatch("%s", msgs[i])
		}
	}
}

func runOffline(cfg config, rep *report) error {
	eng, err := engine.New(core.Config{}, offlineOptions())
	if err != nil {
		return err
	}
	defer eng.Close()
	rep.proc = eng.Processor()
	t := target{submitBatch: eng.SubmitBatch}
	if cfg.wrap != nil {
		t = cfg.wrap(t)
	}

	// Warm-up: let lane state and caches fill, and estimate the rate so
	// that enough inputs exist for the timed window.
	warm := offlineInputs(cfg.seed, streamOfflineWarm, 2*offlineBatch)
	_, _, d := closedLoop(t, warm, offlineBatch, time.Hour)
	rate := float64(len(warm)) / d.Seconds()
	rep.attempt(len(warm))
	checkSMs(rep, warm)

	lowDur := time.Duration(cfg.seconds * offlineLowShare * float64(time.Second))
	mainDur := time.Duration(cfg.seconds*float64(time.Second)) - lowDur
	size := func(d time.Duration, batch int) int {
		n := int(math.Ceil(1.5*rate*d.Seconds()/float64(batch))) + 1
		return n * batch
	}
	low := offlineInputs(cfg.seed, streamOfflineLow, size(lowDur, offlineLowBatch))
	main := offlineInputs(cfg.seed, streamOfflineMain, size(mainDur, offlineBatch))

	lowLat, lowN, _ := closedLoop(t, low, offlineLowBatch, lowDur)
	mainLat, mainN, _ := closedLoop(t, main, offlineBatch, mainDur)
	low, main = low[:lowN], main[:mainN]
	rep.attempt(lowN + mainN)
	checkSMs(rep, low)
	checkSMs(rep, main)

	var cycles int64
	for _, s := range main {
		cycles += int64(s.cycles)
	}
	// The throughput is the median over sub-windows of the loop, so
	// that a few seconds of a stalled host move one window, not the
	// figure.
	smps := windowRate(mainLat, offlineBatch)
	rep.add("sm_per_s", smps, "SM/s", mainN)
	rep.add("capacity_rps", smps, "1/s", mainN)
	rep.add("modeled_cycles_per_sm", float64(cycles)/float64(mainN), "cycles", mainN)
	addLatency(rep, "low", lowLat)
	addLatency(rep, "mid", mainLat)
	return nil
}

// windowRate is the median over sub-windows of a closed loop's calls of
// the requests completed per second, from each call's latency in ms.
func windowRate(lat []float64, batch int) float64 {
	rates := make([]float64, 0, subWindows)
	for w := 0; w < subWindows; w++ {
		calls := lat[w*len(lat)/subWindows : (w+1)*len(lat)/subWindows]
		ms := 0.0
		for _, l := range calls {
			ms += l
		}
		if ms > 0 {
			rates = append(rates, float64(len(calls)*batch)/(ms/1e3))
		}
	}
	return median(rates)
}

// addLatency reports the median and 90th percentile of latencies in ms,
// each the median over sub-windows, and the 99th percentile.
func addLatency(rep *report, name string, lat []float64) {
	rep.add("p50_ms."+name, windowQuantile(lat, 0.5), "ms", len(lat))
	rep.add("p90_ms."+name, windowQuantile(lat, 0.9), "ms", len(lat))
	rep.add("p99_ms."+name, quantile(sortedCopy(lat), 0.99), "ms", len(lat))
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}
