package main

import (
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// workload is one traffic mix: how to build its system under test cold
// (timed as setup_s), how to run it untraced, and how to replay its own
// inputs layer by layer in the traced run.
type workload struct {
	setup  func(rec *telemetry.Recorder) (func(), error)
	run    func(cfg config, rep *report) error
	replay func(cfg config, lp *layerProbe) error
}

var workloads = map[string]*workload{
	"offline-batch": {setup: setupOffline, run: runOffline, replay: replayOffline},
	"serve-sign": {setup: setupServe, replay: replayServe(signSpec),
		run: func(cfg config, rep *report) error { return runServe(cfg, rep, signSpec) }},
	"serve-verify": {setup: setupServe, replay: replayServe(verifySpec),
		run: func(cfg config, rep *report) error { return runServe(cfg, rep, verifySpec) }},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
