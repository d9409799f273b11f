package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// endToEnd and perLayer are the metric names BENCHMARK.json lists, in
// its order: an untraced run prints every endToEnd metric on its last
// line, a traced run every perLayer metric. Every workload defines
// every name (README.md gives the per-workload meaning).
var endToEnd = []string{
	"setup_s",
	"sm_per_s",
	"modeled_cycles_per_sm",
	"p50_ms.low",
	"capacity_rps",
}

var perLayer = []string{
	"fp2.mul_traced_ns",
	"fp2.mul_rows_ns",
	"core.ns_per_sm.vb.single",
	"core.ns_per_sm.vb.w1",
	"core.ns_per_sm.vb.w4",
	"core.ns_per_sm.vb.w8",
	"core.ns_per_sm.fb.w1",
	"core.ns_per_sm.fb.w4",
	"core.cycles.variable_base",
	"core.cycles.fixed_base",
	"core.stall_cycles.variable_base",
	"core.stall_cycles.fixed_base",
	"core.mul_util.variable_base",
	"core.mul_util.fixed_base",
	"sched.trace_s",
	"sched.solve_s",
	"sched.compile_s",
	"engine.overhead_ns_per_sm",
	"engine.idle_submit_ms.vb",
	"engine.idle_submit_ms.fb",
	"engine.attempts_per_sm",
	"engine.software_frac",
	"schnorrq.derive_key_us",
	"schnorrq.sign_ms",
	"schnorrq.verify_ms",
	"schnorrq.batch_verify_ms_per_item",
	"schnorrq.engine_calls_per_verify",
	"schnorrq.datapath_cycles_per_sign",
	"schnorrq.datapath_cycles_per_verify",
	"serve.handler_overhead_us",
	"serve.reject_us",
	"serve.shed_us.sign",
	"serve.shed_frac.over",
}

// metric is one value of the driver-facing last line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reportMetric is a metric with the number of samples behind it.
type reportMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// fingerprint identifies the host a report was measured on. Wall-clock
// figures are comparable only between equal fingerprints.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

// program is the provenance of one compiled microprogram.
type program struct {
	Cycles int    `json:"cycles"`
	Hash   string `json:"schedule_hash"`
}

// schedule names the schedule the run executed.
type schedule struct {
	Solver   string             `json:"solver"`
	Programs map[string]program `json:"programs"`
}

// phase is one fixed-rate open-loop phase of a serve workload.
type phase struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"offered_rps"`
	Sent      int     `json:"sent"`
	Window    float64 `json:"window_s"`
	Answered  float64 `json:"answered_s"`
	OK        int     `json:"ok"`
	Refused   int     `json:"refused"`
	Errors    int     `json:"errors"`
	P50ms     float64 `json:"p50_ms"`
	P90ms     float64 `json:"p90_ms"`
	P99ms     float64 `json:"p99_ms"`
	LateP90ms float64 `json:"gen_late_p90_ms"`
	LateP99ms float64 `json:"gen_late_p99_ms"`
	LateMaxms float64 `json:"gen_late_max_ms"`
	Pass      bool    `json:"meets_slo"`
}

// report is the full record of one run.
type report struct {
	Schema      string                  `json:"schema"`
	Workload    string                  `json:"workload"`
	Seed        uint64                  `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Trace       bool                    `json:"trace"`
	Host        fingerprint             `json:"host"`
	Schedule    schedule                `json:"schedule"`
	Metrics     map[string]reportMetric `json:"metrics"`
	Phases      []phase                 `json:"phases,omitempty"`
	Mismatches  []string                `json:"mismatches,omitempty"`
	WallSeconds float64                 `json:"wall_seconds"`
	Result      result                  `json:"result"`

	proc    *core.Processor
	start   time.Time
	wrong   int // answers that differ from the oracle
	errored int // responses other than 200 and 503, and engine errors
}

const maxMismatches = 8

func newReport(cfg config) *report {
	return &report{
		Schema:   "perfbench/v1",
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Host:     hostFingerprint(),
		Metrics:  map[string]reportMetric{},
		start:    time.Now(),
	}
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.Metrics[name] = reportMetric{Value: value, Unit: unit, Samples: samples}
}

// mismatch records a wrong answer.
func (r *report) mismatch(format string, args ...any) {
	r.wrong++
	if len(r.Mismatches) < maxMismatches {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

// attempt counts n operations issued to the program.
func (r *report) attempt(n int) { r.Result.Attempted += n }

// provenance records the schedule of the processor the run used.
func (r *report) provenance() error {
	if r.proc == nil {
		return fmt.Errorf("workload %s recorded no processor", r.Workload)
	}
	fr := r.proc.ScheduleResult()
	r.Schedule = schedule{Solver: fr.Solver, Programs: map[string]program{
		"variable_base": {Cycles: r.proc.CyclesFunctional(), Hash: fmt.Sprintf("%016x", fr.ScheduleHash)},
	}}
	if fb := r.proc.FixedBaseScheduleResult(); fb != nil {
		r.Schedule.Programs["fixed_base"] = program{Cycles: r.proc.CyclesFixedBase(), Hash: fmt.Sprintf("%016x", fb.ScheduleHash)}
	}
	return nil
}

// finish builds the driver-facing result from the metrics the mode
// requires. A missing metric is a bug in the benchmark.
func (r *report) finish(trace bool) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	r.Result.Metrics = map[string]metric{}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			panic("perfbench: metric " + n + " was not measured")
		}
		r.Result.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	r.Result.Failed = r.wrong + r.errored
	r.Result.Correct = r.wrong == 0 && r.errored == 0 && r.Result.Attempted > 0
	if r.Result.Attempted > 0 {
		r.add("error_frac", float64(r.Result.Failed)/float64(r.Result.Attempted), "ratio", r.Result.Attempted)
	}
	r.WallSeconds = time.Since(r.start).Seconds()
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one; elsewhere the fingerprint says "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// compareReports compares two saved reports of the same workload:
// compare old.json new.json, with the metrics and bounds of the
// benchmark spec at specPath. Reports from different host fingerprints
// are not comparable and fail. Every metric the spec lists for the
// reports' mode must be in both; in an untraced report each must not be
// worse than the old value by more than its bound.
func compareReports(specPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: benchmark spec: %v\n", err)
		return 2
	}
	var reps [2]report
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	old, cur := reps[0], reps[1]
	if old.Host != cur.Host {
		fmt.Fprintf(stdout, "not comparable: host fingerprints differ\n  old %+v\n  new %+v\n", old.Host, cur.Host)
		return 1
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		fmt.Fprintf(stdout, "not comparable: %s (trace %v) against %s (trace %v)\n", old.Workload, old.Trace, cur.Workload, cur.Trace)
		return 1
	}
	if old.Schedule.Solver != cur.Schedule.Solver {
		fmt.Fprintf(stdout, "note: schedule solver changed from %s to %s\n", old.Schedule.Solver, cur.Schedule.Solver)
	}
	var names []string
	bounds := map[string]float64{}
	lower := map[string]bool{}
	if old.Trace {
		for _, m := range spec.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range spec.EndToEnd {
			names = append(names, m.Name)
			bounds[m.Name] = m.Bound
			lower[m.Name] = m.Better == "lower"
		}
	}
	pass := true
	for _, n := range names {
		o, inOld := old.Metrics[n]
		c, inCur := cur.Metrics[n]
		if !inOld || !inCur {
			fmt.Fprintf(stdout, "%-40s MISSING (old %v, new %v)\n", n, inOld, inCur)
			pass = false
			continue
		}
		ratio := c.Value / o.Value
		verdict := ""
		if b, gated := bounds[n]; gated {
			worse := ratio - 1
			if !lower[n] {
				worse = 1 - ratio
			}
			verdict = "ok"
			if worse > b || math.IsNaN(ratio) {
				verdict = fmt.Sprintf("WORSE than bound %.2f", b)
				pass = false
			}
		}
		fmt.Fprintf(stdout, "%-40s %14.6g -> %14.6g %-8s x%.4f %s\n", n, o.Value, c.Value, c.Unit, ratio, verdict)
	}
	if !pass {
		fmt.Fprintln(stdout, "FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "PASS")
	return 0
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median sorts a copy of vs and returns its middle value.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
