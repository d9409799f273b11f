package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestMain lets the test binary serve as the set-up child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == setupChildArg {
		os.Exit(setupChild(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		seconds:   0.5,
		trace:     trace,
		setupRuns: 1,
		spansPath: filepath.Join(t.TempDir(), "spans.json"),
	}
}

// exactMetrics are the metrics that count modeled work, not time: they
// must repeat bit for bit.
var exactMetrics = map[string]bool{
	"modeled_cycles_per_sm":               true,
	"core.cycles.variable_base":           true,
	"core.cycles.fixed_base":              true,
	"core.stall_cycles.variable_base":     true,
	"core.stall_cycles.fixed_base":        true,
	"core.mul_util.variable_base":         true,
	"core.mul_util.fixed_base":            true,
	"schnorrq.engine_calls_per_verify":    true,
	"schnorrq.datapath_cycles_per_sign":   true,
	"schnorrq.datapath_cycles_per_verify": true,
}

// TestTinyRuns runs every workload briefly in both modes, twice: each
// run is correct and prints every metric its mode names with a unit, and
// the exact metrics repeat.
func TestTinyRuns(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			var first map[string]metric
			for i := 0; i < 2; i++ {
				rep, err := execute(tinyConfig(t, name, trace))
				if err != nil {
					t.Fatalf("%s trace=%v: %v", name, trace, err)
				}
				res := rep.Result
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, trace,
						res.Correct, res.Attempted, res.Failed, rep.Mismatches)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
				}
				for _, n := range want {
					if m, ok := res.Metrics[n]; !ok || m.Unit == "" {
						t.Errorf("%s trace=%v: metric %s missing or without unit", name, trace, n)
					}
				}
				if first == nil {
					first = res.Metrics
					continue
				}
				for n := range exactMetrics {
					if a, ok := first[n]; ok && a != res.Metrics[n] {
						t.Errorf("%s trace=%v: exact metric %s changed between runs: %v then %v", name, trace, n, a, res.Metrics[n])
					}
				}
			}
		}
	}
}

// corruptOnce rewrites the first 200 answer to a sign request so that
// its signature no longer matches.
func corruptOnce(h http.Handler) http.Handler {
	var once sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && r.URL.Path == "/v1/sign" {
			once.Do(func() {
				body = bytes.Replace(body, []byte(`"sig":"`), []byte(`"sig":"00`), 1)
			})
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestCorruptAnswerFailsRun checks that a backend returning one wrong
// answer makes the run incorrect, on the HTTP path and the engine path.
func TestCorruptAnswerFailsRun(t *testing.T) {
	cases := map[string]func(target) target{
		"serve-sign": func(tg target) target {
			tg.handler = corruptOnce(tg.handler)
			return tg
		},
		"offline-batch": func(tg target) target {
			var once sync.Once
			inner := tg.submitBatch
			tg.submitBatch = func(ctx context.Context, reqs []engine.Request) ([]engine.Result, error) {
				res, err := inner(ctx, reqs)
				once.Do(func() { res[len(res)-1].Point.X = res[len(res)-1].Point.Y })
				return res, err
			}
			return tg
		},
	}
	for name, wrap := range cases {
		cfg := tinyConfig(t, name, false)
		cfg.wrap = wrap
		rep, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Result.Correct || rep.Result.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d, want an incorrect run with one failure", name, rep.Result.Correct, rep.Result.Failed)
		}
	}
}

// TestBenchmarkJSONNamesMetrics keeps the metric lists in step with
// BENCHMARK.json, and checks that every workload it names exists.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, want %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, want %v", got, perLayer)
	}
	for _, n := range names(spec.Workloads) {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one of %s", n, workloadNames())
		}
	}
}

// TestCompareRefusesOtherHost checks that reports from different host
// fingerprints are not comparable, that a report missing a gated metric
// fails, and that compare without a benchmark spec checks nothing and
// fails.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join("..", "BENCHMARK.json")
	a := report{Workload: "serve-sign", Host: hostFingerprint(), Metrics: map[string]reportMetric{}}
	for _, n := range endToEnd {
		a.Metrics[n] = reportMetric{Value: 1, Unit: "x"}
	}
	b := a
	b.Host.NumCPU++
	short := a
	short.Metrics = map[string]reportMetric{"sm_per_s": {Value: 1, Unit: "SM/s"}}
	write := func(name string, r report) string {
		p := filepath.Join(dir, name)
		data, _ := json.Marshal(r)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb, ps := write("a.json", a), write("b.json", b), write("short.json", short)
	var out, errb bytes.Buffer
	if code := compareReports(spec, []string{pa, pb}, &out, &errb); code == 0 || !strings.Contains(out.String(), "not comparable") {
		t.Errorf("compare across hosts: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := compareReports(spec, []string{pa, pa}, &out, &errb); code != 0 {
		t.Errorf("compare of a report with itself: exit %d, output %q %q", code, out.String(), errb.String())
	}
	out.Reset()
	if code := compareReports(spec, []string{pa, ps}, &out, &errb); code == 0 || !strings.Contains(out.String(), "MISSING") {
		t.Errorf("compare against a report missing metrics: exit %d, output %q", code, out.String())
	}
	if code := compareReports(filepath.Join(dir, "none.json"), []string{pa, pa}, &out, &errb); code == 0 {
		t.Errorf("compare without a benchmark spec: exit %d, want a failure", code)
	}
}

// TestSlowServiceCapacityBelowMid checks that a service which no longer
// meets the latency limit at the mid rate reports a capacity below mid,
// searched for between low and mid.
func TestSlowServiceCapacityBelowMid(t *testing.T) {
	cfg := tinyConfig(t, "serve-verify", false)
	cfg.wrap = func(tg target) target {
		inner := tg.handler
		tg.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(2 * sloP90)
			inner.ServeHTTP(w, r)
		})
		return tg
	}
	rep, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Correct {
		t.Fatalf("slow run is incorrect: %v", rep.Mismatches)
	}
	if c := rep.Metrics["capacity_rps"].Value; c >= verifySpec.mid || c <= 0 {
		t.Errorf("capacity_rps %v, want above 0 and below mid %v", c, verifySpec.mid)
	}
	for _, p := range rep.Phases {
		if strings.HasPrefix(p.Name, "search") && p.Rate >= verifySpec.mid {
			t.Errorf("search step %s ran at %v rps, at or above mid %v", p.Name, p.Rate, verifySpec.mid)
		}
	}
}
