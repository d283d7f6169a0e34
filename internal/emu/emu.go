package emu

import (
	"fmt"

	"phelps/internal/isa"
)

// DynInst is one dynamic instruction produced by the emulator: the static
// instruction plus every value the timing model needs (operand values,
// effective address, branch outcome, next PC). The timing simulator never
// recomputes semantics; it consumes these records and models time.
type DynInst struct {
	Seq    uint64 // dynamic sequence number, starting at 0
	PC     uint64
	Inst   isa.Inst
	NextPC uint64

	Rs1Val, Rs2Val uint64
	RdVal          uint64

	// Memory operations.
	Addr     uint64
	MemSize  int
	StoreVal uint64

	// Control flow.
	Taken bool // conditional branches and jumps
}

// IsCondBranch reports whether this dynamic instruction is a conditional
// branch.
func (d *DynInst) IsCondBranch() bool { return d.Inst.Op.IsCondBranch() }

// Emulator executes a program functionally, producing the correct-path
// dynamic instruction stream. Stores are staged into the memory's pending
// overlay; the timing model retires them into the architectural view.
type Emulator struct {
	Prog *isa.Program
	Mem  *Memory

	Regs   [isa.NumRegs]uint64
	PC     uint64
	Seq    uint64
	Halted bool

	// MaxInsts bounds emulation; Step returns ok=false once reached.
	// Zero means unlimited.
	MaxInsts uint64
}

// New returns an emulator for prog with the given memory, starting at the
// program entry.
func New(prog *isa.Program, mem *Memory) *Emulator {
	return &Emulator{Prog: prog, Mem: mem, PC: prog.Entry}
}

// Step executes one instruction and returns its dynamic record. ok=false
// means the program has halted (or MaxInsts was reached) and d is invalid.
func (e *Emulator) Step() (d DynInst, ok bool) {
	ok = e.StepInto(&d)
	return d, ok
}

// StepInto executes one instruction and writes its dynamic record into d,
// field by field, so the record is built where the caller keeps it (the
// core passes its frontend slot). It returns false, leaving d untouched, once
// the program has halted or MaxInsts was reached.
func (e *Emulator) StepInto(d *DynInst) bool {
	if e.Halted || (e.MaxInsts != 0 && e.Seq >= e.MaxInsts) {
		return false
	}
	inst, found := e.Prog.At(e.PC)
	if !found {
		panic(fmt.Sprintf("emu: PC %#x outside program [%#x,%#x)", e.PC, e.Prog.Base, e.Prog.End()))
	}
	d.Seq, d.PC, d.Inst, d.NextPC = e.Seq, e.PC, inst, e.PC+isa.InstBytes
	d.Rs1Val, d.Rs2Val = e.Regs[inst.Rs1], e.Regs[inst.Rs2]
	d.RdVal, d.Addr, d.MemSize, d.StoreVal, d.Taken = 0, 0, 0, 0, false

	op := inst.Op
	switch {
	case op == isa.NOP:
	case op == isa.HALT:
		e.Halted = true
	case op.IsCondBranch():
		d.Taken = isa.BranchTaken(op, d.Rs1Val, d.Rs2Val)
		if d.Taken {
			d.NextPC = e.PC + uint64(inst.Imm)
		}
	case op == isa.JAL:
		d.Taken = true
		d.RdVal = e.PC + isa.InstBytes
		d.NextPC = e.PC + uint64(inst.Imm)
		e.setReg(inst.Rd, d.RdVal)
	case op == isa.JALR:
		d.Taken = true
		d.RdVal = e.PC + isa.InstBytes
		d.NextPC = (d.Rs1Val + uint64(inst.Imm)) &^ 1
		e.setReg(inst.Rd, d.RdVal)
	case op.IsLoad():
		d.Addr = d.Rs1Val + uint64(inst.Imm)
		d.MemSize = op.MemBytes()
		raw := e.Mem.ReadProgram(d.Addr, d.MemSize)
		d.RdVal = extendLoad(op, raw)
		e.setReg(inst.Rd, d.RdVal)
	case op.IsStore():
		d.Addr = d.Rs1Val + uint64(inst.Imm)
		d.MemSize = op.MemBytes()
		d.StoreVal = d.Rs2Val
		e.Mem.StagePendingStore(d.Seq, d.Addr, d.MemSize, d.StoreVal)
	default: // ALU (incl. LUI, MUL/DIV/REM)
		d.RdVal = isa.EvalALU(op, d.Rs1Val, d.Rs2Val, inst.Imm)
		e.setReg(inst.Rd, d.RdVal)
	}

	e.PC = d.NextPC
	e.Seq++
	return true
}

func (e *Emulator) setReg(r isa.Reg, v uint64) {
	if r != isa.X0 {
		e.Regs[r] = v
	}
}

// extendLoad sign/zero-extends a raw little-endian load value per the opcode.
func extendLoad(op isa.Op, raw uint64) uint64 {
	switch op {
	case isa.LD:
		return raw
	case isa.LW:
		return uint64(int64(int32(uint32(raw))))
	case isa.LWU:
		return uint64(uint32(raw))
	case isa.LB:
		return uint64(int64(int8(uint8(raw))))
	case isa.LBU:
		return uint64(uint8(raw))
	}
	panic(fmt.Sprintf("emu: extendLoad on %v", op))
}

// RunResult summarizes a pure-functional run (no timing).
type RunResult struct {
	Insts   uint64
	Regs    [isa.NumRegs]uint64
	HaltPC  uint64
	Reached bool // false if MaxInsts was hit before HALT
}

// Run executes the program functionally to completion, retiring every store
// immediately (no timing model). It is used by workload-correctness tests and
// the functional `examples`.
func Run(prog *isa.Program, mem *Memory, maxInsts uint64) RunResult {
	e := New(prog, mem)
	e.MaxInsts = maxInsts
	var last DynInst
	for {
		d, ok := e.Step()
		if !ok {
			break
		}
		if d.Inst.Op.IsStore() {
			if err := mem.RetireStore(d.Seq, d.Addr, d.MemSize, d.StoreVal); err != nil {
				panic(err)
			}
		}
		last = d
	}
	return RunResult{Insts: e.Seq, Regs: e.Regs, HaltPC: last.PC, Reached: e.Halted}
}
