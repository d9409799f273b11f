package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// setupChildArg is the first argument of the child process that
// measures one cold set-up. engine.CachedProcessor is process-global, so
// a cold build can be timed only once per process.
const setupChildArg = "setup-child"

// setupTimes is what one child reports: the cold set-up, and with
// tracing on, the build spans core.Config.Telemetry records split by
// pipeline step.
type setupTimes struct {
	Setup   float64 `json:"setup_s"`
	Trace   float64 `json:"trace_s"`
	Solve   float64 `json:"solve_s"`
	Compile float64 `json:"compile_s"`
}

// setupStats holds the medians over cfg.setupRuns children.
type setupStats struct {
	setup, trace, solve, compile float64
}

// measureSetup runs cfg.setupRuns fresh processes one after another and
// returns the median of each time they report.
func measureSetup(cfg config) (setupStats, error) {
	self, err := os.Executable()
	if err != nil {
		return setupStats{}, err
	}
	mode := "plain"
	if cfg.trace {
		mode = "telemetry"
	}
	var setup, tr, solve, comp []float64
	for i := 0; i < cfg.setupRuns; i++ {
		var out, errb bytes.Buffer
		cmd := exec.Command(self, setupChildArg, cfg.workload, mode)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			return setupStats{}, fmt.Errorf("set-up child: %v: %s", err, strings.TrimSpace(errb.String()))
		}
		var t setupTimes
		if err := json.Unmarshal(out.Bytes(), &t); err != nil {
			return setupStats{}, fmt.Errorf("set-up child output %q: %v", out.String(), err)
		}
		setup = append(setup, t.Setup)
		tr = append(tr, t.Trace)
		solve = append(solve, t.Solve)
		comp = append(comp, t.Compile)
	}
	return setupStats{median(setup), median(tr), median(solve), median(comp)}, nil
}

// setupChild times one cold set-up of a workload's system under test
// and prints setupTimes as JSON: setup-child <workload> plain|telemetry.
func setupChild(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench setup-child <workload> plain|telemetry")
		return 2
	}
	w, ok := workloads[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", args[0])
		return 2
	}
	var rec *telemetry.Recorder
	if args[1] == "telemetry" {
		rec = telemetry.NewRecorder()
		t0 := time.Now()
		rec.SetClock(func() int64 { return time.Since(t0).Nanoseconds() })
	}
	t0 := time.Now()
	closeFn, err := w.setup(rec)
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	closeFn()
	t := setupTimes{Setup: d.Seconds()}
	if rec != nil {
		// The build spans are named "<step>/<program>" (core.New).
		for _, ev := range rec.Events() {
			step, _, _ := strings.Cut(ev.Name, "/")
			s := float64(ev.Dur) / 1e9
			switch step {
			case "trace":
				t.Trace += s
			case "schedule":
				t.Solve += s
			case "compile":
				t.Compile += s
			}
		}
	}
	b, _ := json.Marshal(t) // a struct of floats always encodes
	fmt.Fprintln(stdout, string(b))
	return 0
}
