package rtl

import (
	"errors"
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/scalar"
	"repro/internal/sched"
)

// boundInputs converts a name->value input map into a Binding list via
// the compiled program's register resolution.
func boundInputs(t testing.TB, cp *CompiledProgram, in map[string]fp2.Element) []Binding {
	t.Helper()
	bound := make([]Binding, 0, len(in))
	for name, v := range in {
		r, ok := cp.InputReg(name)
		if !ok {
			t.Fatalf("input %q not in program", name)
		}
		bound = append(bound, Binding{Reg: r, Val: v})
	}
	return bound
}

// TestCompiledMatchesInterpreter is the core differential check: the
// compiled fast path (Machine, a one-lane LaneMachine) and the reference
// interpreter must agree on outputs AND on the complete statistics
// structure for a spread of random scalars.
func TestCompiledMatchesInterpreter(t *testing.T) {
	prog, acc, table, _ := dblAddSetup(t, 21, sched.MethodList)
	inputs := dblAddInputs(acc, table)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.NewMachine()
	rng := mrand.New(mrand.NewSource(77))
	for trial := 0; trial < 32; trial++ {
		k := randScalar(rng)
		dec := scalar.Decompose(k)
		in := RunInput{Inputs: inputs, Rec: scalar.Recode(dec), Corrected: dec.Corrected}

		wantOut, wantSt, err := Interpret(prog, in)
		if err != nil {
			t.Fatalf("trial %d: interpreter: %v", trial, err)
		}
		gotSt, err := m.Run(in)
		if err != nil {
			t.Fatalf("trial %d: compiled: %v", trial, err)
		}
		for name := range prog.OutputRegs {
			r, _ := cp.OutputReg(name)
			if !m.Reg(r).Equal(wantOut[name]) {
				t.Fatalf("trial %d: output %q differs between compiled and interpreted", trial, name)
			}
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("trial %d: stats differ:\ncompiled:    %+v\ninterpreted: %+v", trial, gotSt, wantSt)
		}
	}
}

// TestCompiledMachineReuse checks that a reused machine carries no state
// between runs: alternating scalars, bound-input runs, and an
// interleaved slow-path (observed) run must all stay correct.
func TestCompiledMachineReuse(t *testing.T) {
	prog, acc, table, _ := dblAddSetup(t, 22, sched.MethodBnB)
	inputs := dblAddInputs(acc, table)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.NewMachine()
	bound := boundInputs(t, cp, inputs)
	rng := mrand.New(mrand.NewSource(88))
	for trial := 0; trial < 12; trial++ {
		k := randScalar(rng)
		dec := scalar.Decompose(k)
		in := RunInput{Bound: bound, Rec: scalar.Recode(dec), Corrected: dec.Corrected}
		if trial%3 == 2 {
			// Every third run takes the interpreted slow path on the same
			// machine (an Observer forces it); it must neither corrupt nor
			// be corrupted by the surrounding fast-path runs.
			in.Observer = func(Event) {}
		}
		if _, err := m.Run(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := curve.Point{}
		for name, dst := range map[string]*fp2.Element{
			"x": &got.X, "y": &got.Y, "z": &got.Z, "ta": &got.Ta, "tb": &got.Tb,
		} {
			r, _ := cp.OutputReg(name)
			*dst = m.Reg(r)
		}
		if !got.Equal(expectedDblAdd(acc, table, k)) {
			t.Fatalf("trial %d: reused machine produced a wrong result", trial)
		}
	}
}

// TestObserverEventParity requires the event stream of a Machine run
// with an Observer to be byte-identical — same events, same order — to
// the reference interpreter's.
func TestObserverEventParity(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 23, sched.MethodList)
	inputs := dblAddInputs(acc, table)
	dec := scalar.Decompose(k)
	collect := func(run func(RunInput) error) []Event {
		var evs []Event
		in := RunInput{
			Inputs:    inputs,
			Rec:       scalar.Recode(dec),
			Corrected: dec.Corrected,
			Observer:  func(e Event) { evs = append(evs, e) },
		}
		if err := run(in); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	want := collect(func(in RunInput) error {
		_, _, err := Interpret(prog, in)
		return err
	})
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.NewMachine()
	got := collect(func(in RunInput) error {
		_, err := m.Run(in)
		return err
	})
	if len(got) != len(want) {
		t.Fatalf("event count %d, interpreter produced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d differs:\nmachine:     %+v\ninterpreter: %+v", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("no events observed")
	}
}

// pokeInjector is a minimal fault injector: at one cycle it flips the
// low bit of one register-file word. Used to check that a Machine run
// with an Injector behaves identically to the reference interpreter.
type pokeInjector struct {
	cycle int
	reg   uint16
}

func (p *pokeInjector) BeginCycle(cycle int, rf RegFile) {
	if cycle == p.cycle && int(p.reg) < rf.NumRegs() {
		v := rf.Peek(p.reg)
		lo, hi := v.A.Limbs()
		rf.Poke(p.reg, fp2.New(fp.SetLimbs(lo^1, hi), v.B))
	}
}
func (p *pokeInjector) Fetch(_ int, ins isa.Instr) (isa.Instr, bool)      { return ins, true }
func (p *pokeInjector) Forward(_ int, _ uint8, v fp2.Element) fp2.Element { return v }
func (p *pokeInjector) Retire(_ int, _ uint8, _ uint16, v fp2.Element) fp2.Element {
	return v
}

// TestInjectorParity: a faulted Machine run must agree with a faulted
// interpreter run — same (possibly corrupted) outputs, same stats, same
// error — across a sweep of injection points.
func TestInjectorParity(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 24, sched.MethodList)
	inputs := dblAddInputs(acc, table)
	dec := scalar.Decompose(k)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.NewMachine()
	for cycle := 0; cycle <= prog.Makespan; cycle += 7 {
		for reg := 0; reg < prog.NumRegs; reg += 11 {
			mkIn := func() RunInput {
				return RunInput{
					Inputs:    inputs,
					Rec:       scalar.Recode(dec),
					Corrected: dec.Corrected,
					Injector:  &pokeInjector{cycle: cycle, reg: uint16(reg)},
				}
			}
			wantOut, wantSt, wantErr := Interpret(prog, mkIn())
			gotSt, gotErr := m.Run(mkIn())
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("cycle %d reg %d: error parity broken: machine=%v interpreter=%v", cycle, reg, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("cycle %d reg %d: errors differ: machine=%v interpreter=%v", cycle, reg, gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("cycle %d reg %d: stats differ under injection", cycle, reg)
			}
			for name := range prog.OutputRegs {
				r, _ := cp.OutputReg(name)
				if !m.Reg(r).Equal(wantOut[name]) {
					t.Fatalf("cycle %d reg %d: output %q differs under injection", cycle, reg, name)
				}
			}
		}
	}
}

// TestCompileRejectsHazards: the structural corruptions the interpreter
// used to trip over at runtime must now be rejected at Compile time.
func TestCompileRejectsHazards(t *testing.T) {
	prog, _, _, _ := dblAddSetup(t, 25, sched.MethodList)
	corrupt := func(mutate func(p *isa.Program)) error {
		cp := *prog
		cp.Instrs = append([]isa.Instr(nil), prog.Instrs...)
		mutate(&cp)
		_, err := Compile(&cp)
		return err
	}
	if err := corrupt(func(p *isa.Program) {
		for i := range p.Instrs {
			if p.Instrs[i].Unit == isa.UnitMul && p.Instrs[i].Cycle > 0 {
				p.Instrs[i].Cycle = p.Instrs[0].Cycle
				break
			}
		}
	}); err == nil {
		t.Error("double issue not rejected at compile time")
	}
	if err := corrupt(func(p *isa.Program) {
		for i := range p.Instrs {
			if p.Instrs[i].A.Kind == isa.OpFwdMul {
				p.Instrs[i].A = isa.Operand{Kind: isa.OpFwdAdd}
			}
		}
	}); err == nil || !errors.Is(err, ErrHazard) {
		t.Errorf("idle-unit forwarding: want ErrHazard, got %v", err)
	}
	if err := corrupt(func(p *isa.Program) {
		p.NumRegs++
		p.Instrs[len(p.Instrs)-1].A = isa.Operand{Kind: isa.OpReg, Reg: uint16(p.NumRegs - 1)}
	}); err == nil || !errors.Is(err, ErrHazard) {
		t.Errorf("never-written read: want ErrHazard, got %v", err)
	}
	if err := corrupt(func(p *isa.Program) {
		for i := range p.Instrs {
			if p.Instrs[i].Unit == isa.UnitAdd {
				p.Instrs[i].CmdMode = isa.CmdDynSign
				p.Instrs[i].Digit = scalar.Digits + 3
				break
			}
		}
	}); err == nil || !errors.Is(err, ErrHazard) {
		t.Errorf("out-of-range dyn-sign digit: want ErrHazard, got %v", err)
	}
}

// TestBoundInputCount: a Bound list that does not cover the program's
// inputs exactly is rejected on both paths.
func TestBoundInputCount(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 26, sched.MethodList)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	dec := scalar.Decompose(k)
	bound := boundInputs(t, cp, dblAddInputs(acc, table))[:3]
	in := RunInput{Bound: bound, Rec: scalar.Recode(dec), Corrected: dec.Corrected}
	if _, err := cp.NewMachine().Run(in); err == nil {
		t.Error("fast path accepted a short Bound list")
	}
	if _, _, err := Interpret(prog, in); err == nil {
		t.Error("interpreter accepted a short Bound list")
	}
}

// TestFastPathZeroAllocs: the compiled fast path with bound inputs must
// not touch the heap in steady state.
func TestFastPathZeroAllocs(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 27, sched.MethodList)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.NewMachine()
	dec := scalar.Decompose(k)
	in := RunInput{Bound: boundInputs(t, cp, dblAddInputs(acc, table)), Rec: scalar.Recode(dec), Corrected: dec.Corrected}
	if _, err := m.Run(in); err != nil { // warm-up validates the setup
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Run(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("machine fast path allocates %.1f times per run, want 0", allocs)
	}
}
