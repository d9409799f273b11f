package rtl

import (
	"repro/internal/fp2"
)

// Machine is the reusable mutable state for executing one compiled
// program one scalar multiplication at a time. Its fast path is a
// width-1 LaneMachine: a single run walks the same lockstep loop and
// Algorithm 2 row kernel as a batch, so there is one compiled execution
// path whatever the batch size. Runs with an Observer or Injector take
// the reference interpreter instead, on the same register file.
//
// A Machine is NOT safe for concurrent use; give each goroutine its own
// (each core.Executor owns one). Steady-state Run on the fast path
// performs zero heap allocations: bind inputs with RunInput.Bound and
// read outputs back with Reg + CompiledProgram's OutputReg.
type Machine struct {
	lanes *LaneMachine
	// in/errs are the one-lane argument slots handed to RunLanes, kept
	// here so a run builds no slices.
	in   [1]RunInput
	errs [1]error
	// slow is the lazily built reference interpreter sharing the lane
	// machine's register file (width 1 makes its layout the plain
	// register array); it serves runs with an Observer or Injector
	// attached, preserving the interpreter's exact event and hook
	// semantics.
	slow *machine
}

// NewMachine allocates a machine for the compiled program.
func (cp *CompiledProgram) NewMachine() *Machine {
	return &Machine{lanes: cp.NewLaneMachine(1)}
}

// Program returns the machine's compiled program.
func (m *Machine) Program() *CompiledProgram { return m.lanes.cp }

// Reg reads a register-file word (no port accounting); resolve output
// registers once with CompiledProgram.OutputReg.
func (m *Machine) Reg(r uint16) fp2.Element { return m.lanes.regs[r] }

// Run executes one scalar multiplication worth of the program. With no
// Observer and no Injector it is a one-lane RunLanes: the error is the
// lane's (a bind or residual-check failure) and the Stats are the
// program's precomputed ones, whose IssuesByOpcode map is shared across
// runs — read-only. Otherwise it falls back to the reference
// interpreter on this machine's buffers, with byte-identical event
// ordering and injection hooks.
func (m *Machine) Run(in RunInput) (Stats, error) {
	if in.Observer != nil || in.Injector != nil {
		return m.runSlow(in)
	}
	m.in[0] = in
	st, err := m.lanes.RunLanes(m.in[:], m.errs[:])
	m.in[0] = RunInput{} // do not retain the caller's bindings
	if err == nil {
		err = m.errs[0]
	}
	if err != nil {
		return Stats{}, err
	}
	return st, nil
}

// runSlow executes via the reference interpreter on this machine's
// register file (so outputs land in the same place as the fast path).
func (m *Machine) runSlow(in RunInput) (Stats, error) {
	if m.slow == nil {
		cp := m.lanes.cp
		m.slow = &machine{
			prog:    cp.prog,
			regs:    m.lanes.regs,
			written: m.lanes.written,
			byCycle: cp.byCycle,
		}
	}
	return m.slow.run(in)
}
