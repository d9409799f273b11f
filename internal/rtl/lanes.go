package rtl

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/fp2"
	"repro/internal/isa"
)

// LaneMachine executes the compiled schedule once for up to Width
// independent scalar multiplications in lockstep. The design exploits
// the ASIC's defining property: the issue/retire table is static and
// data-independent (Section III-C), so L runs over different scalars
// walk *exactly* the same control path. Batching them lets the table
// decode, cycle loop, and operand dispatch be paid once per L lanes,
// turning the inner fp2 kernels into tight loops over contiguous
// per-lane values.
//
// State is laid out structure-of-arrays: the register file and the
// pipeline value slots are flat [entry*Width + lane] arrays, so the
// per-op lane loop touches one contiguous row. Per-lane data — the
// recoded digits driving table indexing, the dynamic sign commands, the
// parity-correction selects — flows through the operands Compile
// pre-decoded. Width 1 is the single-run fast path: Machine.Run is a
// one-lane RunLanes.
//
// Error handling is per lane: a residual runtime check failing in one
// lane records that lane's error (byte-identical to what Machine.Run
// returns for the same input) and degrades only that lane; the
// remaining lanes complete normally. This is sound because the checks
// depend only on the lane's own recoded digits, never on datapath
// values, and the written-bits state is a property of the schedule —
// shared by all lanes.
//
// A LaneMachine is NOT safe for concurrent use; give each goroutine its
// own. Steady-state RunLanes performs zero heap allocations: the caller
// owns the input and error slices, and outputs are read back per lane
// with Reg.
type LaneMachine struct {
	cp    *CompiledProgram
	width int
	// regs is the SoA register file: register r of lane l lives at
	// regs[int(r)*width+l].
	regs []fp2.Element
	// vals is one result row per scheduled op: the units' pipeline
	// registers, widened per lane. Each op's completion cycle is static,
	// so the interpreter's dynamic pipe-slot lists collapse into a flat
	// array indexed by op.
	vals []fp2.Element
	// written is shared across lanes: instruction writes are statically
	// addressed, so the written-bits state at any cycle is a schedule
	// property, identical in every lane. Only maintained when the
	// program carries residual runtime checks (cp.trackWritten).
	written []bool
	// aBuf/bBuf gather runtime-selected operands (table/correction
	// reads, whose source register differs per lane) into one row.
	aBuf, bBuf []fp2.Element
	// ins/errs alias the caller's slices for the duration of one run.
	ins  []RunInput
	errs []error
	n    int
}

// NewLaneMachine allocates a lockstep machine for up to width lanes.
func (cp *CompiledProgram) NewLaneMachine(width int) *LaneMachine {
	if width < 1 {
		width = 1
	}
	return &LaneMachine{
		cp:      cp,
		width:   width,
		regs:    make([]fp2.Element, cp.prog.NumRegs*width),
		vals:    make([]fp2.Element, len(cp.ops)*width),
		written: make([]bool, cp.prog.NumRegs),
		aBuf:    make([]fp2.Element, width),
		bBuf:    make([]fp2.Element, width),
	}
}

// Width is the lane capacity; RunLanes accepts any 1..Width inputs.
func (lm *LaneMachine) Width() int { return lm.width }

// Program returns the machine's compiled program.
func (lm *LaneMachine) Program() *CompiledProgram { return lm.cp }

// Reg reads a register-file word of one lane (no port accounting);
// resolve output registers once with CompiledProgram.OutputReg.
func (lm *LaneMachine) Reg(lane int, r uint16) fp2.Element {
	return lm.regs[int(r)*lm.width+lane]
}

// RunLanes executes one lockstep pass of the schedule over len(ins)
// lanes (a partial final batch — fewer inputs than Width — is fine).
// errs must have the same length as ins; on return errs[l] carries lane
// l's failure (a bind or residual-check error; Machine.Run returns
// exactly this for a one-lane run), or nil on success. A failing
// lane degrades only itself: the others complete and their outputs are
// valid. The returned Stats are the program's precomputed statistics —
// identical for every lane, because the schedule is data-independent
// (IssuesByOpcode is the shared read-only map).
//
// The returned error reports caller mistakes that prevent the lockstep
// run as a whole (no lanes, more lanes than Width, mismatched errs
// length, an Observer or Injector attached — those force the
// interpreter and have no lockstep equivalent); per-lane input problems
// land in errs instead.
func (lm *LaneMachine) RunLanes(ins []RunInput, errs []error) (Stats, error) {
	if len(ins) == 0 {
		return Stats{}, fmt.Errorf("rtl: lane run with no inputs")
	}
	if len(ins) > lm.width {
		return Stats{}, fmt.Errorf("rtl: %d lane inputs for a machine of width %d", len(ins), lm.width)
	}
	if len(errs) != len(ins) {
		return Stats{}, fmt.Errorf("rtl: %d error slots for %d lane inputs", len(errs), len(ins))
	}
	for l := range ins {
		if ins[l].Observer != nil || ins[l].Injector != nil {
			return Stats{}, fmt.Errorf("rtl: lane %d: lockstep execution does not support Observer or Injector (use Machine.Run)", l)
		}
		errs[l] = nil
	}
	lm.ins, lm.errs, lm.n = ins, errs, len(ins)
	if lm.cp.trackWritten {
		copy(lm.written, lm.cp.initWritten)
	}
	for l := range ins {
		if err := lm.bindLane(l, &ins[l]); err != nil && errs[l] == nil {
			errs[l] = err
		}
	}
	lm.run()
	lm.ins, lm.errs = nil, nil // do not retain the caller's slices
	return lm.cp.stats, nil
}

// bindLane resets lane l's register column for a run: constants
// reloaded, inputs bound. Registers beyond those may hold values from
// the previous run; that is safe because the compile-time walk proved
// every statically addressed read is preceded by a write, and
// runtime-selected reads that could not be proven carry a written-bits
// check.
func (lm *LaneMachine) bindLane(l int, in *RunInput) error {
	cp, w := lm.cp, lm.width
	for _, c := range cp.consts {
		lm.regs[int(c.reg)*w+l] = c.val
	}
	if in.Bound != nil {
		if len(in.Bound) != len(cp.inputs) {
			return fmt.Errorf("rtl: %d bound inputs for a program with %d inputs", len(in.Bound), len(cp.inputs))
		}
		for _, b := range in.Bound {
			if int(b.Reg) >= cp.prog.NumRegs {
				return fmt.Errorf("rtl: bound input register %d out of range", b.Reg)
			}
			lm.regs[int(b.Reg)*w+l] = b.Val
		}
		return nil
	}
	for _, slot := range cp.inputs {
		v, ok := in.Inputs[slot.name]
		if !ok {
			return fmt.Errorf("rtl: missing input %q", slot.name)
		}
		lm.regs[int(slot.reg)*w+l] = v
	}
	return nil
}

// run is the lockstep cycle loop: write-back then issue each cycle,
// exactly the interpreter's phase order, with every schedule-level check
// already discharged by Compile and every per-op decision made once and
// applied to all lanes.
func (lm *LaneMachine) run() {
	cp := lm.cp
	ops := cp.ops
	w, n := lm.width, lm.n
	track := cp.trackWritten
	// Forwarding rows alias the retiring op's value row directly: each
	// op's row is written once at issue and only read at its retire
	// cycle, so no copy is needed.
	var mulFwd, addFwd []fp2.Element
	for c := range cp.cycles {
		cc := &cp.cycles[c]
		// Write-back phase.
		if i := cc.retMul; i >= 0 {
			row := lm.vals[int(i)*w : int(i)*w+n]
			mulFwd = row
			if op := &ops[i]; !op.noWB {
				copy(lm.regs[int(op.dst)*w:int(op.dst)*w+n], row)
				if track {
					lm.written[op.dst] = true
				}
			}
		}
		if i := cc.retAdd; i >= 0 {
			row := lm.vals[int(i)*w : int(i)*w+n]
			addFwd = row
			if op := &ops[i]; !op.noWB {
				copy(lm.regs[int(op.dst)*w:int(op.dst)*w+n], row)
				if track {
					lm.written[op.dst] = true
				}
			}
		}
		// Issue phase.
		for i := cc.first; i < cc.first+cc.count; i++ {
			op := &ops[i]
			// Register reads and forwarding taps are zero-copy row views,
			// resolved here rather than in a call: they are most operands.
			var av, bv []fp2.Element
			switch op.a.kind {
			case isa.OpReg:
				av = lm.regs[int(op.a.reg)*w : int(op.a.reg)*w+n]
			case isa.OpFwdMul:
				av = mulFwd
			case isa.OpFwdAdd:
				av = addFwd
			default:
				av = lm.gatherRow(&op.a, op, lm.aBuf)
			}
			switch op.b.kind {
			case isa.OpReg:
				bv = lm.regs[int(op.b.reg)*w : int(op.b.reg)*w+n]
			case isa.OpFwdMul:
				bv = mulFwd
			case isa.OpFwdAdd:
				bv = addFwd
			default:
				bv = lm.gatherRow(&op.b, op, lm.bBuf)
			}
			out := lm.vals[int(i)*w : int(i)*w+n]
			if op.unit == isa.UnitMul {
				// Row kernel: bit-identical to per-lane MulAlg2 without
				// materializing a pipeline trace per product.
				fp2.MulAlg2Rows(out, av, bv)
				continue
			}
			if op.dynSign {
				// The sign command is per lane: each lane's recoded digit
				// (or correction flag) drives its own add/sub select.
				for l := 0; l < n; l++ {
					in := &lm.ins[l]
					neg := in.Corrected
					if op.digit != isa.DigitCorr {
						neg = in.Rec.Sign[op.digit] < 0
					}
					if neg {
						out[l].A = fp.Sub(av[l].A, bv[l].A)
						out[l].B = fp.Sub(av[l].B, bv[l].B)
					} else {
						out[l].A = fp.Add(av[l].A, bv[l].A)
						out[l].B = fp.Add(av[l].B, bv[l].B)
					}
				}
				continue
			}
			// Static lane commands: one branch per op, not per lane.
			switch {
			case !op.subRe && !op.subIm:
				for l := 0; l < n; l++ {
					out[l].A = fp.Add(av[l].A, bv[l].A)
					out[l].B = fp.Add(av[l].B, bv[l].B)
				}
			case op.subRe && op.subIm:
				for l := 0; l < n; l++ {
					out[l].A = fp.Sub(av[l].A, bv[l].A)
					out[l].B = fp.Sub(av[l].B, bv[l].B)
				}
			case op.subRe:
				for l := 0; l < n; l++ {
					out[l].A = fp.Sub(av[l].A, bv[l].A)
					out[l].B = fp.Add(av[l].B, bv[l].B)
				}
			default:
				for l := 0; l < n; l++ {
					out[l].A = fp.Add(av[l].A, bv[l].A)
					out[l].B = fp.Sub(av[l].B, bv[l].B)
				}
			}
		}
	}
}

// gatherRow resolves one runtime-selected operand (table, ROM or
// correction read) for all lanes: each lane's recoded digit or
// correction flag picks its own source, gathered into buf, with the
// residual written-bits check applied where Compile could not
// discharge it.
func (lm *LaneMachine) gatherRow(o *cOperand, op *cOp, buf []fp2.Element) []fp2.Element {
	n := lm.n
	switch o.kind {
	case isa.OpTable:
		for l := 0; l < n; l++ {
			rec := &lm.ins[l].Rec
			r := o.tblPos[rec.Index[o.digit]]
			if rec.Sign[o.digit] < 0 {
				r = o.tblNeg[rec.Index[o.digit]]
			}
			buf[l] = lm.laneRead(r, l, op, o.check)
		}
		return buf[:n]
	case isa.OpROM:
		// Per-lane ROM gather: each lane's recoded digit selects its own
		// flat ROM address; contents are constants, so no residual check.
		for l := 0; l < n; l++ {
			rec := &lm.ins[l].Rec
			r := o.tblPos[rec.Index[o.digit]]
			if rec.Sign[o.digit] < 0 {
				r = o.tblNeg[rec.Index[o.digit]]
			}
			buf[l] = lm.cp.rom[r]
		}
		return buf[:n]
	case isa.OpCorr:
		for l := 0; l < n; l++ {
			r := o.identReg
			if lm.ins[l].Corrected {
				r = o.corrReg
			}
			buf[l] = lm.laneRead(r, l, op, o.check)
		}
		return buf[:n]
	}
	// Compile rejects every other kind.
	panic("rtl: unreachable operand kind on compiled lane path")
}

// laneRead loads one lane's runtime-selected register, recording the
// lane's first residual-check failure. A failed lane keeps executing in
// lockstep on placeholder data (the register file column it already
// has) so the other lanes' schedule walk is undisturbed; its error is
// what the caller sees.
func (lm *LaneMachine) laneRead(r uint16, l int, op *cOp, check bool) fp2.Element {
	if check {
		if int(r) >= lm.cp.prog.NumRegs {
			if lm.errs[l] == nil {
				lm.errs[l] = fmt.Errorf("op %q: %w: register %d out of range", op.label, ErrHazard, r)
			}
			return fp2.Element{}
		}
		if !lm.written[r] && lm.errs[l] == nil {
			lm.errs[l] = fmt.Errorf("op %q: %w: read of never-written register %d", op.label, ErrHazard, r)
		}
	}
	return lm.regs[int(r)*lm.width+l]
}
