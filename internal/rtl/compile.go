package rtl

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/scalar"
)

// CompiledProgram is the ahead-of-time execution plan for one immutable
// microprogram: the result of running every data-independent part of the
// interpreter exactly once. It holds
//
//   - a dense per-cycle issue/retire table (no per-run byCycle
//     bucketing, no dynamic pipeline slices),
//   - operands pre-decoded to small enums, with the 16 possible
//     table-region registers of each OpTable operand resolved per
//     (index, sign) ahead of time,
//   - the statically proven structural-hazard facts: double issue,
//     multiplier II, read/write port pressure, forwarding alignment and
//     never-written reads are schedule properties, so a validated plan
//     runs with no hazard checks in the hot loop (the few reads whose
//     target register is runtime-selected and not provably initialized
//     keep a per-operand check flag),
//   - the complete Stats of a run, which for this fixed-FSM design are
//     data-independent — including the IssuesByOpcode map, built once
//     and shared read-only by every run.
//
// A CompiledProgram is immutable after Compile and safe for concurrent
// use; per-run mutable state lives in LaneMachine (Machine is its
// one-lane view).
type CompiledProgram struct {
	prog *isa.Program
	// byCycle groups the original instruction stream by issue cycle in
	// program order; the interpreted slow path walks it so observed event
	// order is identical to the reference interpreter's.
	byCycle [][]isa.Instr
	ops     []cOp    // pre-decoded, cycle-major, program intra-cycle order
	cycles  []cCycle // one entry per cycle 0..Makespan
	consts  []constSlot
	inputs  []inputSlot
	// initWritten is the written-bits template after program load
	// (constants and inputs true); copied into the machine per run when
	// trackWritten is set.
	initWritten []bool
	// trackWritten is set when at least one runtime-selected operand
	// could not be statically proven initialized, so the fast path must
	// maintain written bits to serve its residual checks.
	trackWritten bool
	// rom is the flattened fixed-base window ROM: coordinate c of entry u
	// of window w lives at (w-1)*32 + u*4 + c, pre-converted from limbs.
	// OpROM operands resolve against it through their own read port, so
	// ROM reads never count toward register-file port pressure.
	rom          []fp2.Element
	stats        Stats
	opcodeCounts [numOpcodes]int
}

type constSlot struct {
	reg uint16
	val fp2.Element
}

type inputSlot struct {
	name string
	reg  uint16
}

// cOperand is a pre-decoded datapath input. For the runtime-selected
// kinds the register candidates are resolved at compile time: tblPos/
// tblNeg for OpTable (indexed by the recoded digit's table index, sign
// picking the X+Y / Y-X swap), corrReg/identReg for OpCorr's two
// branches; OpROM reuses tblPos/tblNeg as flat indices into cp.rom.
// check marks the rare operand whose selected register must still be
// confirmed initialized at runtime.
type cOperand struct {
	kind     isa.OperandKind
	check    bool
	reg      uint16 // OpReg
	digit    uint8  // OpTable index digit / OpROM window
	tblPos   [8]uint16
	tblNeg   [8]uint16
	corrReg  uint16 // OpCorr, correction flag set
	identReg uint16 // OpCorr, correction flag clear
}

// cOp is one pre-decoded issued operation.
type cOp struct {
	unit    uint8
	dynSign bool
	digit   uint8 // CmdDynSign digit (DigitCorr = correction flag)
	subRe   bool
	subIm   bool
	noWB    bool
	dst     uint16
	label   string // runtime-check error context only
	a, b    cOperand
}

// cCycle is one row of the dense issue/retire table: the ops issuing
// this cycle as a [first, first+count) window into ops, plus the op
// (by index) retiring on each unit this cycle (-1 when the unit's
// pipeline delivers nothing).
type cCycle struct {
	first, count int32
	retMul       int32
	retAdd       int32
}

// Compile validates the program once and lowers it to a CompiledProgram.
// All schedule-level structural hazards the interpreter would detect at
// runtime — double issue, multiplier II violations, register port
// over-subscription, forwarding from an idle unit, statically reachable
// reads of never-written registers, malformed operand kinds, out-of-range
// dynamic-sign digits — are detected here and reported as ErrHazard (or
// the isa validation error), so a plan that compiles runs hazard-free.
func Compile(p *isa.Program) (*CompiledProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := &CompiledProgram{
		prog:        p,
		byCycle:     buildByCycle(p),
		cycles:      make([]cCycle, p.Makespan+1),
		initWritten: make([]bool, p.NumRegs),
	}
	// Program load: constants pre-converted from limbs, inputs resolved
	// to slots. Both are marked in the written-bits template (the machine
	// binds every input before running; the count is enforced at bind).
	for _, c := range p.ConstRegs {
		cp.consts = append(cp.consts, constSlot{
			reg: c.Reg,
			val: fp2.New(fp.SetLimbs(c.Value[0], c.Value[1]), fp.SetLimbs(c.Value[2], c.Value[3])),
		})
		cp.initWritten[c.Reg] = true
	}
	for name, reg := range p.InputRegs {
		cp.inputs = append(cp.inputs, inputSlot{name: name, reg: reg})
		cp.initWritten[reg] = true
	}
	if len(p.ROMWindows) > 0 {
		cp.rom = make([]fp2.Element, len(p.ROMWindows)*32)
		for w := range p.ROMWindows {
			for u := 0; u < 8; u++ {
				for c := 0; c < 4; c++ {
					l := p.ROMWindows[w][u][c]
					cp.rom[w*32+u*4+c] = fp2.New(fp.SetLimbs(l[0], l[1]), fp.SetLimbs(l[2], l[3]))
				}
			}
		}
	}

	// Static walk of the schedule: an abstract run of the interpreter's
	// cycle loop tracking only data-independent state (written bits and
	// per-cycle retire/issue structure), performing its checks and
	// accumulating its statistics once.
	written := append([]bool(nil), cp.initWritten...)
	for i := range cp.cycles {
		cp.cycles[i].retMul = -1
		cp.cycles[i].retAdd = -1
	}
	for cycle := 0; cycle <= p.Makespan; cycle++ {
		cc := &cp.cycles[cycle]
		// Write-back phase. One result per unit per cycle is structural
		// (per-unit single issue at fixed latency), so retMul/retAdd are
		// conflict-free by construction.
		writes := 0
		for _, idx := range [2]int32{cc.retMul, cc.retAdd} {
			if idx < 0 {
				continue
			}
			op := &cp.ops[idx]
			if op.noWB {
				cp.stats.ElidedWrites++
			} else {
				written[op.dst] = true
				writes++
			}
		}
		if writes > 2 {
			return nil, fmt.Errorf("%w: %d register writes at cycle %d (2 ports)", ErrHazard, writes, cycle)
		}
		cp.stats.RegWrites += writes
		cp.stats.WritePortPressure[writes]++
		// Issue phase.
		cc.first = int32(len(cp.ops))
		reads := 0
		for _, ins := range cp.byCycle[cycle] {
			op := cOp{
				unit:  ins.Unit,
				noWB:  ins.NoWB,
				dst:   ins.Dst,
				label: ins.Label,
			}
			var ra, rb int
			var err error
			op.a, ra, err = cp.compileOperand(ins.A, cycle, cc, written)
			if err != nil {
				return nil, fmt.Errorf("cycle %d op %q A: %w", cycle, ins.Label, err)
			}
			op.b, rb, err = cp.compileOperand(ins.B, cycle, cc, written)
			if err != nil {
				return nil, fmt.Errorf("cycle %d op %q B: %w", cycle, ins.Label, err)
			}
			reads += ra + rb
			// A non-positive latency means the result would complete at or
			// before its own issue's write-back phase and never retire —
			// the interpreter reports it as a drain hazard.
			lat := p.AddLatency
			if ins.Unit == isa.UnitMul {
				lat = p.MulLatency
			}
			if lat <= 0 {
				return nil, fmt.Errorf("%w: result still in flight after makespan", ErrHazard)
			}
			idx := int32(len(cp.ops))
			if ins.Unit == isa.UnitMul {
				cp.stats.MulIssues++
				cp.cycles[cycle+p.MulLatency].retMul = idx
			} else {
				cp.stats.AddIssues++
				if ins.CmdMode == isa.CmdDynSign {
					op.dynSign = true
					op.digit = ins.Digit
					if ins.Digit != isa.DigitCorr && ins.Digit >= scalar.Digits {
						return nil, fmt.Errorf("cycle %d op %q: %w: dyn sign digit %d", cycle, ins.Label, ErrHazard, ins.Digit)
					}
				} else {
					op.subRe = ins.CmdRe == isa.CmdSub
					op.subIm = ins.CmdIm == isa.CmdSub
				}
				cp.cycles[cycle+p.AddLatency].retAdd = idx
			}
			cp.opcodeCounts[opcodeID(ins)]++
			cp.ops = append(cp.ops, op)
			cc.count++
		}
		if reads > 4 {
			return nil, fmt.Errorf("%w: %d register reads at cycle %d (4 ports)", ErrHazard, reads, cycle)
		}
		cp.stats.RegReads += reads
		cp.stats.ReadPortPressure[reads]++
		if cc.count == 0 {
			cp.stats.StallCycles++
		}
	}
	// Instruction writes are statically addressed, so end-of-run written
	// bits are exact: outputs can be checked once here.
	for name, reg := range p.OutputRegs {
		if int(reg) >= p.NumRegs {
			return nil, fmt.Errorf("rtl: output %q register %d out of range", name, reg)
		}
		if !written[reg] {
			return nil, fmt.Errorf("rtl: output %q register %d never written", name, reg)
		}
	}
	cp.stats.Cycles = p.Makespan
	if p.Makespan > 0 {
		cp.stats.MulUtilization = float64(cp.stats.MulIssues) / float64(p.Makespan)
		cp.stats.AddUtilization = float64(cp.stats.AddIssues) / float64(p.Makespan)
	}
	cp.stats.IssuesByOpcode = make(map[string]int, numOpcodes)
	for id, n := range cp.opcodeCounts {
		if n > 0 {
			cp.stats.IssuesByOpcode[opcodeNames[id]] = n
		}
	}
	return cp, nil
}

// compileOperand pre-decodes one operand and performs its static checks
// against the written bits as of this cycle; it returns the read-port
// count the operand consumes.
func (cp *CompiledProgram) compileOperand(op isa.Operand, cycle int, cc *cCycle, written []bool) (cOperand, int, error) {
	p := cp.prog
	provable := func(r uint16) bool {
		return int(r) < p.NumRegs && written[r]
	}
	switch op.Kind {
	case isa.OpReg:
		// Range-checked by Validate; a statically unwritten read at this
		// cycle fails in every run, so it is a compile error.
		if !written[op.Reg] {
			return cOperand{}, 0, fmt.Errorf("%w: read of never-written register %d", ErrHazard, op.Reg)
		}
		return cOperand{kind: isa.OpReg, reg: op.Reg}, 1, nil
	case isa.OpFwdMul:
		if cc.retMul < 0 {
			return cOperand{}, 0, fmt.Errorf("%w: forwarding from idle multiplier", ErrHazard)
		}
		cp.stats.ForwardedReads++
		return cOperand{kind: isa.OpFwdMul}, 0, nil
	case isa.OpFwdAdd:
		if cc.retAdd < 0 {
			return cOperand{}, 0, fmt.Errorf("%w: forwarding from idle adder", ErrHazard)
		}
		cp.stats.ForwardedReads++
		return cOperand{kind: isa.OpFwdAdd}, 0, nil
	case isa.OpTable:
		if op.Digit >= scalar.Digits {
			return cOperand{}, 0, fmt.Errorf("%w: table digit %d", ErrHazard, op.Digit)
		}
		c := cOperand{kind: isa.OpTable, digit: op.Digit}
		swapped := swap01(op.Coord)
		for idx := 0; idx < 8; idx++ {
			c.tblPos[idx] = p.TableRegs[idx][op.Coord]
			c.tblNeg[idx] = p.TableRegs[idx][swapped]
			if !provable(c.tblPos[idx]) || !provable(c.tblNeg[idx]) {
				// The digit may never select this entry; defer to a
				// runtime check instead of rejecting the schedule.
				c.check = true
				cp.trackWritten = true
			}
		}
		return c, 1, nil
	case isa.OpROM:
		// Validate checked the window and coordinate ranges; the digit
		// positions driving the runtime index must also exist.
		if op.Digit >= scalar.Digits {
			return cOperand{}, 0, fmt.Errorf("%w: ROM window %d exceeds digit positions", ErrHazard, op.Digit)
		}
		// Pre-resolve the flat ROM addresses for the 16 possible
		// (index, sign) selections. ROM contents are always present, so no
		// written check; the ROM's own read port keeps the register-file
		// read count at zero.
		c := cOperand{kind: isa.OpROM, digit: op.Digit}
		base := (int(op.Digit) - 1) * 32
		swapped := swap01(op.Coord)
		for idx := 0; idx < 8; idx++ {
			c.tblPos[idx] = uint16(base + idx*4 + int(op.Coord))
			c.tblNeg[idx] = uint16(base + idx*4 + int(swapped))
		}
		cp.stats.ROMReads++
		return c, 0, nil
	case isa.OpCorr:
		if op.Coord > 3 {
			return cOperand{}, 0, fmt.Errorf("%w: corr coord %d", ErrHazard, op.Coord)
		}
		c := cOperand{
			kind:     isa.OpCorr,
			corrReg:  p.TableRegs[0][swap01(op.Coord)],
			identReg: p.CorrIdentRegs[op.Coord],
		}
		if !provable(c.corrReg) || !provable(c.identReg) {
			c.check = true
			cp.trackWritten = true
		}
		return c, 1, nil
	}
	return cOperand{}, 0, fmt.Errorf("%w: operand kind %v unresolvable", ErrHazard, op.Kind)
}

// swap01 applies the table-region coordinate swap (X+Y <-> Y-X) used for
// negative digits and the parity correction; coordinates 2 and 3 are
// unaffected.
func swap01(coord uint8) uint8 {
	switch coord {
	case 0:
		return 1
	case 1:
		return 0
	}
	return coord
}

// Stats returns the precomputed statistics of any run of the program.
// The IssuesByOpcode map is shared: treat the result as read-only.
func (cp *CompiledProgram) Stats() Stats { return cp.stats }

// Program returns the compiled source program (immutable by contract).
func (cp *CompiledProgram) Program() *isa.Program { return cp.prog }

// InputReg resolves an external input name to its register, for building
// allocation-free Binding lists.
func (cp *CompiledProgram) InputReg(name string) (uint16, bool) {
	r, ok := cp.prog.InputRegs[name]
	return r, ok
}

// OutputReg resolves an output name to its register, for reading results
// off a Machine without an output map.
func (cp *CompiledProgram) OutputReg(name string) (uint16, bool) {
	r, ok := cp.prog.OutputRegs[name]
	return r, ok
}

// NumInputs is the number of external inputs a run must bind.
func (cp *CompiledProgram) NumInputs() int { return len(cp.inputs) }
