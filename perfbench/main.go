// Command perfbench is the repository benchmark. It drives the FourQ
// service stack in one process through its public layers — the HTTP
// handler of internal/serve, internal/schnorrq, internal/engine,
// internal/core and internal/fp2 — on seeded inputs, checks every
// answer against the software oracle, and prints the metrics named in
// BENCHMARK.json.
//
// Run it from the repository root through its wrapper, which builds the
// binary into .bench_build:
//
//	bash perfbench/run.sh --workload serve-sign --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// full report: host fingerprint, schedule provenance, every metric with
// its unit and sample count, and the per-phase figures. With --trace 1
// the run measures the single layers instead of the end-to-end metrics
// and writes its spans to .bench_build/spans/.
//
//	bash perfbench/run.sh compare old-report.json new-report.json
//
// compares two saved reports (--report writes one); reports from
// different host fingerprints are "not comparable" and fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setupRuns is how many fresh processes measure the cold set-up.
	setupRuns int
	// wrap, when non-nil, replaces the target the workload drives; the
	// self-tests use it to corrupt answers.
	wrap func(target) target
	// spansPath receives the traced run's spans.
	spansPath string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case setupChildArg:
			return setupChild(args[1:], stdout, stderr)
		case "compare":
			return compareReports("BENCHMARK.json", args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: offline-batch, serve-sign or serve-verify")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "1 measures the single layers instead of the end-to-end metrics")
	reportPath := fs.String("report", "", "also write the full report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		setupRuns: 15,
		spansPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed)),
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printTable(stderr, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !rep.Result.Correct {
		for _, m := range rep.Mismatches {
			fmt.Fprintln(stderr, "perfbench: wrong answer:", m)
		}
		return 1
	}
	return 0
}

// execute runs one workload in the mode cfg selects and returns its
// report.
func execute(cfg config) (*report, error) {
	rep := newReport(cfg)
	st, err := measureSetup(cfg)
	if err != nil {
		return nil, err
	}
	w := workloads[cfg.workload]
	if cfg.trace {
		err = traceLayers(cfg, w, rep, st)
	} else {
		rep.add("setup_s", st.setup, "s", cfg.setupRuns)
		err = w.run(cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	if err := rep.provenance(); err != nil {
		return nil, err
	}
	rep.finish(cfg.trace)
	return rep, nil
}

func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v on %s (%d cpu, GOMAXPROCS %d, %s), schedule %s\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Host.CPUModel, rep.Host.NumCPU, rep.Host.GOMAXPROCS,
		rep.Host.GoVersion, rep.Schedule.Solver)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  phase %-10s offered %8.1f rps: sent %d ok %d refused %d errors %d p50 %.3f p90 %.3f p99 %.3f ms, late p90 %.3f p99 %.3f max %.3f ms\n",
			p.Name, p.Rate, p.Sent, p.OK, p.Refused, p.Errors, p.P50ms, p.P90ms, p.P99ms, p.LateP90ms, p.LateP99ms, p.LateMaxms)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d (%s)\n", rep.Result.Correct, rep.Result.Attempted,
		rep.Result.Failed, time.Duration(rep.WallSeconds*float64(time.Second)).Round(time.Millisecond))
}
