package core

import (
	"testing"

	"repro/internal/curve"
	"repro/internal/jobshop"
	"repro/internal/power"
	"repro/internal/scalar"
	"repro/internal/sched"
)

// sharedProcessor is built once; constructing and scheduling the full SM
// trace takes a noticeable fraction of a second.
var sharedProcessor *Processor

func getProcessor(t testing.TB) *Processor {
	t.Helper()
	if sharedProcessor == nil {
		p, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		sharedProcessor = p
	}
	return sharedProcessor
}

func TestProcessorVerify(t *testing.T) {
	p := getProcessor(t)
	if err := p.Verify(4, 12345); err != nil {
		t.Fatal(err)
	}
}

func TestCycleCounts(t *testing.T) {
	p := getProcessor(t)
	if p.CyclesEndoModeled() >= p.CyclesFunctional() {
		t.Errorf("endo-modelled cycles (%d) should be below functional (%d): the substitution doublings dominate step 1",
			p.CyclesEndoModeled(), p.CyclesFunctional())
	}
	// Paper-comparable count: roughly 2-4k cycles at one Fp2 mult/cycle.
	if p.CyclesEndoModeled() < 1000 || p.CyclesEndoModeled() > 6000 {
		t.Errorf("endo-modelled cycle count %d implausible", p.CyclesEndoModeled())
	}
	t.Logf("cycles: functional=%d endo-modelled=%d", p.CyclesFunctional(), p.CyclesEndoModeled())
}

func TestScalarMultEndoMatchesLibrary(t *testing.T) {
	p := getProcessor(t)
	k := scalar.Scalar{77, 88, 99, 111}
	gotFunc, _, err := p.ScalarMult(k)
	if err != nil {
		t.Fatal(err)
	}
	gotEndo, _, err := p.ScalarMultEndo(k, curve.GeneratorAffine())
	if err != nil {
		t.Fatal(err)
	}
	if !gotFunc.X.Equal(gotEndo.X) || !gotFunc.Y.Equal(gotEndo.Y) {
		t.Fatal("functional and endo-workload programs disagree")
	}
}

func TestPowerModelPlausibleFrequency(t *testing.T) {
	p := getProcessor(t)
	m, err := p.PowerModel()
	if err != nil {
		t.Fatal(err)
	}
	f := m.Fmax(1.2)
	// The derived clock at 1.2 V should be a plausible 65 nm frequency.
	if f < 100e6 || f > 800e6 {
		t.Errorf("derived Fmax(1.2V) = %.1f MHz implausible", f/1e6)
	}
	t.Logf("derived Fmax(1.2V) = %.1f MHz for %d cycles/SM", f/1e6, p.CyclesEndoModeled())
}

// tableISolve is the one branch-and-bound solve of the Table I block,
// run with progress reporting on and shared by TestTableI and
// TestTableIBnBProgress (each solve takes ~15 s).
type tableISolve struct {
	r                        *TableIResult
	err                      error
	incumbents, bounds, done int
}

var sharedTableI *tableISolve

func getTableI(t testing.TB) *tableISolve {
	t.Helper()
	if sharedTableI == nil {
		s := &tableISolve{}
		s.r, s.err = TableIObserved(sched.DefaultResources(), func(p jobshop.Progress) {
			switch p.Kind {
			case jobshop.ProgressIncumbent:
				s.incumbents++
			case jobshop.ProgressBound:
				s.bounds++
			case jobshop.ProgressDone:
				s.done++
			}
		})
		sharedTableI = s
	}
	if sharedTableI.err != nil {
		t.Fatal(sharedTableI.err)
	}
	return sharedTableI
}

func TestTableI(t *testing.T) {
	r := getTableI(t).r
	if r.Makespan <= 0 {
		t.Fatalf("Table I makespan = %d", r.Makespan)
	}
	if r.Muls != 15 || r.Adds != 13 {
		t.Errorf("block op counts %d/%d, want 15/13", r.Muls, r.Adds)
	}
	if !r.Optimal {
		t.Error("Table I block should solve to proven optimality")
	}
	if r.Makespan < 18 || r.Makespan > 30 {
		t.Errorf("DBLADD makespan %d not in the vicinity of the paper's 25", r.Makespan)
	}
	if r.Listing == "" {
		t.Error("empty listing")
	}
}

// TestTableIBnBProgress checks the acceptance criterion that the
// branch-and-bound solver reports at least one progress event
// (incumbent or bound improvement) on the Table I workload, and
// exactly one done event.
func TestTableIBnBProgress(t *testing.T) {
	s := getTableI(t)
	if s.incumbents+s.bounds < 1 {
		t.Fatalf("no incumbent/bound progress events on the Table I workload (incumbents=%d bounds=%d)",
			s.incumbents, s.bounds)
	}
	if s.done != 1 {
		t.Fatalf("done events = %d, want 1", s.done)
	}
	if s.r.Makespan <= 0 {
		t.Fatalf("Table I makespan = %d", s.r.Makespan)
	}
}

func TestTableII(t *testing.T) {
	p := getProcessor(t)
	r, err := p.TableII()
	if err != nil {
		t.Fatal(err)
	}
	// Headline ratios (exact by calibration).
	if r.SpeedupVsP256ASIC < 3.5 || r.SpeedupVsP256ASIC > 3.8 {
		t.Errorf("speedup vs P-256 ASIC = %.2f, paper says 3.66", r.SpeedupVsP256ASIC)
	}
	if r.SpeedupVsFourQFPGA < 15.0 || r.SpeedupVsFourQFPGA > 16.0 {
		t.Errorf("speedup vs FourQ FPGA = %.2f, paper says 15.5", r.SpeedupVsFourQFPGA)
	}
	if r.EnergyGainVsECDSA < 4.9 || r.EnergyGainVsECDSA > 5.4 {
		t.Errorf("energy gain vs ECDSA ASIC = %.2f, paper says 5.14", r.EnergyGainVsECDSA)
	}
	// Same-silicon cross-check: our P-256 model should be several times
	// slower than FourQ, in the neighbourhood of the measured 3.66x.
	if r.ModelSpeedupP256 < 2.0 || r.ModelSpeedupP256 > 6.0 {
		t.Errorf("model-based P-256 speedup %.2f outside [2,6]", r.ModelSpeedupP256)
	}
	// Curve25519 should sit between P-256 and FourQ (the paper's ~2x).
	if r.ModelSpeedupC25519 <= 1.0 || r.ModelSpeedupC25519 >= r.ModelSpeedupP256 {
		t.Errorf("Curve25519 model speedup %.2f not between FourQ and P-256 (%.2f)",
			r.ModelSpeedupC25519, r.ModelSpeedupP256)
	}
	// Latency-area product at 1.2 V should match the paper's 14.1.
	if r.OursHighV.LatencyAreaProduct < 13.5 || r.OursHighV.LatencyAreaProduct > 14.8 {
		t.Errorf("latency-area product %.1f, paper says 14.1", r.OursHighV.LatencyAreaProduct)
	}
	t.Logf("speedups: vs P-256 ASIC %.2fx (model cross-check %.2fx), vs FourQ FPGA %.1fx, energy vs ECDSA %.2fx",
		r.SpeedupVsP256ASIC, r.ModelSpeedupP256, r.SpeedupVsFourQFPGA, r.EnergyGainVsECDSA)
}

func TestFigure3(t *testing.T) {
	p := getProcessor(t)
	b := p.Figure3()
	if b.TotalKGE < 1399.9 || b.TotalKGE > 1400.1 {
		t.Errorf("area %f kGE != 1400", b.TotalKGE)
	}
}

func TestFigure4(t *testing.T) {
	p := getProcessor(t)
	r, err := p.Figure4(23)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 23 {
		t.Fatal("wrong sweep size")
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if !approx(first.LatencyS, power.AnchorLowLatency, 1e-6) || !approx(last.LatencyS, power.AnchorHighLatency, 1e-6) {
		t.Error("sweep endpoints do not hit the paper's anchors")
	}
	if !approx(first.EnergyJ, power.AnchorLowEnergy, 1e-6) || !approx(last.EnergyJ, power.AnchorHighEnergy, 1e-6) {
		t.Error("energy endpoints do not hit the paper's anchors")
	}
	if r.MinEnergyV > 0.40 {
		t.Errorf("minimum-energy voltage %.2f V too high", r.MinEnergyV)
	}
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*b
}

func TestOpMix(t *testing.T) {
	p := getProcessor(t)
	mix := p.OpMix()
	if mix.Stats.MulShare < 0.45 || mix.Stats.MulShare > 0.70 {
		t.Errorf("mul share %.2f outside plausible band around the paper's 57%%", mix.Stats.MulShare)
	}
}

func TestSchedulerAblation(t *testing.T) {
	rows, err := SchedulerAblation(sched.DefaultResources(), false)
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string]AblationRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	if byMethod["dbladd/bnb"].Makespan > byMethod["dbladd/list"].Makespan {
		t.Error("exact solver worse than list")
	}
	if byMethod["dbladd/blocked"].Makespan < byMethod["dbladd/bnb"].Makespan {
		t.Error("blocked beat exact?")
	}
}

func TestForwardingAblation(t *testing.T) {
	with, without, err := ForwardingAblation(sched.DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	if without <= with {
		t.Errorf("longer unit latency should lengthen the block: %d vs %d", without, with)
	}
}

func TestROMStats(t *testing.T) {
	p := getProcessor(t)
	r, err := p.ROM()
	if err != nil {
		t.Fatal(err)
	}
	if r.Words < 1000 {
		t.Errorf("ROM suspiciously small: %d words", r.Words)
	}
}

func TestSectionTiming(t *testing.T) {
	p := getProcessor(t)
	spans := p.SectionTiming()
	if len(spans) != 4 {
		t.Fatalf("expected 4 sections, got %d", len(spans))
	}
	byName := map[string]SectionSpan{}
	total := 0
	for _, s := range spans {
		byName[s.Name] = s
		total += s.Ops
		if s.FirstIssue > s.LastDone {
			t.Fatalf("section %s has inverted span", s.Name)
		}
	}
	if total != 4663 {
		t.Errorf("section ops sum %d, want 4663", total)
	}
	// Dependency order: the main loop cannot finish before the table
	// build starts, and finalize ends the schedule.
	if byName["mainloop"].LastDone < byName["tablebuild"].LastDone {
		t.Error("main loop finished before the table build")
	}
	if byName["finalize"].LastDone != p.CyclesFunctional() {
		t.Errorf("finalize ends at %d, makespan %d", byName["finalize"].LastDone, p.CyclesFunctional())
	}
	// Global scheduling overlaps sections: the table build starts before
	// the multibase chain fully drains.
	if byName["tablebuild"].FirstIssue >= byName["multibase"].LastDone {
		t.Error("no cross-section overlap; scheduler is serializing sections")
	}
	t.Logf("sections:")
	for _, s := range spans {
		t.Logf("  %-10s %4d ops, cycles [%d, %d]", s.Name, s.Ops, s.FirstIssue, s.LastDone)
	}
}
