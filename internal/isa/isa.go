// Package isa defines the RISC-V-flavored instruction set used by the
// simulator: a 64-bit integer ISA with 32 logical registers, plus the Phelps
// extensions (predicate source/destination operands) described in Section V-E
// of the paper. Instructions are represented structurally rather than as
// binary encodings; the fixed 4-byte PC granularity of RV64 is preserved so
// loop PC bounds and branch targets behave like the paper's.
package isa

import "fmt"

// Reg is a logical integer register, x0..x31. x0 is hardwired to zero.
type Reg uint8

// NumRegs is the number of logical integer registers.
const NumRegs = 32

// Conventional register aliases (a subset of the RISC-V ABI names).
const (
	X0  Reg = 0 // hardwired zero
	RA  Reg = 1 // return address
	SP  Reg = 2 // stack pointer
	GP  Reg = 3
	TP  Reg = 4
	T0  Reg = 5
	T1  Reg = 6
	T2  Reg = 7
	S0  Reg = 8
	S1  Reg = 9
	A0  Reg = 10
	A1  Reg = 11
	A2  Reg = 12
	A3  Reg = 13
	A4  Reg = 14
	A5  Reg = 15
	A6  Reg = 16
	A7  Reg = 17
	S2  Reg = 18
	S3  Reg = 19
	S4  Reg = 20
	S5  Reg = 21
	S6  Reg = 22
	S7  Reg = 23
	S8  Reg = 24
	S9  Reg = 25
	S10 Reg = 26
	S11 Reg = 27
	T3  Reg = 28
	T4  Reg = 29
	T5  Reg = 30
	T6  Reg = 31
)

// PredReg is a logical predicate register for the Phelps extension. Pred0 is
// reserved to signify unconditional execution (Section V-E).
type PredReg uint8

// Pred0 is the reserved always-enabled predicate.
const Pred0 PredReg = 0

// NumPredRegs is the number of logical predicate registers (31 usable + pred0).
const NumPredRegs = 32

// Op enumerates the instruction opcodes.
type Op uint8

const (
	NOP Op = iota

	// Register-register ALU.
	ADD
	SUB
	SLT
	SLTU
	AND
	OR
	XOR
	SLL
	SRL
	SRA

	// Register-immediate ALU.
	ADDI
	SLTI
	SLTIU
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	LUI // rd = imm << 12

	// Complex ALU.
	MUL
	DIV
	REM

	// Loads (signed unless noted). Addr = rs1 + imm.
	LD  // 8 bytes
	LW  // 4 bytes, sign-extended
	LWU // 4 bytes, zero-extended
	LB  // 1 byte, sign-extended
	LBU // 1 byte, zero-extended

	// Stores. Addr = rs1 + imm, value = rs2.
	SD // 8 bytes
	SW // 4 bytes
	SB // 1 byte

	// Conditional branches: compare rs1, rs2; target = pc + imm.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	// Jumps.
	JAL  // rd = pc+4; pc = pc + imm
	JALR // rd = pc+4; pc = (rs1 + imm) &^ 1

	// HALT terminates the program (stands in for ECALL/exit).
	HALT

	// PPRODUCE is a predicate producer: a conditional branch converted by
	// Phelps helper-thread construction (Section V-E). It evaluates the
	// original branch condition (per CmpOp) and writes a 2-bit predicate to
	// PredDst; it never redirects control flow.
	PPRODUCE

	// MOVLIVE is the annotated live-in move injected when a helper thread
	// starts (Section V-F): rd in the helper thread's context is copied from
	// rs1 in the source context (main thread or Visit Queue slot).
	MOVLIVE

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", ADD: "add", SUB: "sub", SLT: "slt", SLTU: "sltu",
	AND: "and", OR: "or", XOR: "xor", SLL: "sll", SRL: "srl", SRA: "sra",
	ADDI: "addi", SLTI: "slti", SLTIU: "sltiu", ANDI: "andi", ORI: "ori",
	XORI: "xori", SLLI: "slli", SRLI: "srli", SRAI: "srai", LUI: "lui",
	MUL: "mul", DIV: "div", REM: "rem",
	LD: "ld", LW: "lw", LWU: "lwu", LB: "lb", LBU: "lbu",
	SD: "sd", SW: "sw", SB: "sb",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	JAL: "jal", JALR: "jalr", HALT: "halt",
	PPRODUCE: "pproduce", MOVLIVE: "movlive",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is one instruction. Fields not used by an opcode are zero.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64

	// Phelps extensions (Section V-E). For PPRODUCE, CmpOp holds the
	// original conditional-branch opcode and PredDst the destination
	// predicate. PredSrc/PredDir form the extra predicate source operand
	// carried by converted branches and included stores: the consumer is
	// enabled iff its producer was itself enabled and resolved in direction
	// PredDir.
	CmpOp   Op
	PredDst PredReg
	PredSrc PredReg
	PredDir bool // enabling direction: true = taken
}

// InstBytes is the architectural size of one instruction.
const InstBytes = 4

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return o >= BEQ && o <= BGEU }

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool { return o >= LD && o <= LBU }

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool { return o >= SD && o <= SB }

// IsJump reports whether the opcode is an unconditional control transfer.
func (o Op) IsJump() bool { return o == JAL || o == JALR }

// IsComplex reports whether the opcode uses the complex-ALU lanes.
func (o Op) IsComplex() bool { return o == MUL || o == DIV || o == REM }

// MemBytes returns the access size in bytes for loads and stores, or 0.
func (o Op) MemBytes() int {
	switch o {
	case LD, SD:
		return 8
	case LW, LWU, SW:
		return 4
	case LB, LBU, SB:
		return 1
	}
	return 0
}

// HasImm reports whether the opcode's Imm field is meaningful.
func (o Op) HasImm() bool {
	switch {
	case o >= ADDI && o <= LUI:
		return true
	case o.IsLoad() || o.IsStore():
		return true
	case o.IsCondBranch() || o.IsJump():
		return true
	}
	return false
}

// WritesRd reports whether the opcode writes an integer destination register.
func (o Op) WritesRd() bool {
	switch {
	case o == NOP || o == HALT || o == PPRODUCE:
		return false
	case o.IsStore() || o.IsCondBranch():
		return false
	}
	return true
}

// SrcRegs returns the logical source registers read by the instruction.
// x0 reads are included (they are free in hardware but harmless to report).
func (i *Inst) SrcRegs() (srcs [2]Reg, n int) {
	switch {
	case i.Op == NOP || i.Op == HALT || i.Op == LUI || i.Op == JAL:
		return srcs, 0
	case i.Op == MOVLIVE:
		srcs[0] = i.Rs1
		return srcs, 1
	case i.Op == JALR:
		srcs[0] = i.Rs1
		return srcs, 1
	case i.Op.IsLoad():
		srcs[0] = i.Rs1
		return srcs, 1
	case i.Op.IsStore() || i.Op.IsCondBranch() || i.Op == PPRODUCE:
		srcs[0], srcs[1] = i.Rs1, i.Rs2
		return srcs, 2
	case i.Op >= ADDI && i.Op <= SRAI:
		srcs[0] = i.Rs1
		return srcs, 1
	default: // register-register ALU, MUL/DIV/REM
		srcs[0], srcs[1] = i.Rs1, i.Rs2
		return srcs, 2
	}
}

// BranchTaken evaluates a conditional-branch comparison.
func BranchTaken(op Op, a, b uint64) bool {
	switch op {
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return int64(a) < int64(b)
	case BGE:
		return int64(a) >= int64(b)
	case BLTU:
		return a < b
	case BGEU:
		return a >= b
	}
	panic(fmt.Sprintf("isa: BranchTaken on non-branch op %v", op))
}

// EvalALU computes the result of an ALU opcode given operand values a (rs1),
// b (rs2) and the immediate. It is shared by the functional emulator and the
// helper-thread execution engine so both produce identical dataflow.
func EvalALU(op Op, a, b uint64, imm int64) uint64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case SLT:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case SLTU:
		if a < b {
			return 1
		}
		return 0
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SLL:
		return a << (b & 63)
	case SRL:
		return a >> (b & 63)
	case SRA:
		return uint64(int64(a) >> (b & 63))
	case ADDI:
		return a + uint64(imm)
	case SLTI:
		if int64(a) < imm {
			return 1
		}
		return 0
	case SLTIU:
		if a < uint64(imm) {
			return 1
		}
		return 0
	case ANDI:
		return a & uint64(imm)
	case ORI:
		return a | uint64(imm)
	case XORI:
		return a ^ uint64(imm)
	case SLLI:
		return a << (uint64(imm) & 63)
	case SRLI:
		return a >> (uint64(imm) & 63)
	case SRAI:
		return uint64(int64(a) >> (uint64(imm) & 63))
	case LUI:
		return uint64(imm) << 12
	case MUL:
		return a * b
	case DIV:
		if b == 0 {
			return ^uint64(0)
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return a
		}
		return uint64(int64(a) / int64(b))
	case REM:
		if b == 0 {
			return a
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case MOVLIVE:
		return a
	}
	panic(fmt.Sprintf("isa: EvalALU on non-ALU op %v", op))
}

// String renders the instruction in an assembly-like form.
func (i Inst) String() string {
	switch {
	case i.Op == NOP || i.Op == HALT:
		return i.Op.String()
	case i.Op == LUI:
		return fmt.Sprintf("lui x%d, %d", i.Rd, i.Imm)
	case i.Op == JAL:
		return fmt.Sprintf("jal x%d, %d", i.Rd, i.Imm)
	case i.Op == JALR:
		return fmt.Sprintf("jalr x%d, x%d, %d", i.Rd, i.Rs1, i.Imm)
	case i.Op == MOVLIVE:
		return fmt.Sprintf("movlive x%d, x%d", i.Rd, i.Rs1)
	case i.Op == PPRODUCE:
		s := fmt.Sprintf("pproduce p%d, %s x%d, x%d", i.PredDst, i.CmpOp, i.Rs1, i.Rs2)
		if i.PredSrc != Pred0 {
			s += fmt.Sprintf(" [p%d=%v]", i.PredSrc, i.PredDir)
		}
		return s
	case i.Op.IsLoad():
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.Op.IsStore():
		s := fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
		if i.PredSrc != Pred0 {
			s += fmt.Sprintf(" [p%d=%v]", i.PredSrc, i.PredDir)
		}
		return s
	case i.Op.IsCondBranch():
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.Op.HasImm():
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s x%d, x%d, x%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// Program is a contiguous code image based at Base, with PCs advancing by
// InstBytes. Entry is the initial PC.
type Program struct {
	Base   uint64
	Entry  uint64
	Code   []Inst
	Labels map[string]uint64 // label -> PC, for diagnostics and tests
}

// At returns the instruction at pc, or ok=false if pc is outside the image.
func (p *Program) At(pc uint64) (Inst, bool) {
	if pc < p.Base || (pc-p.Base)%InstBytes != 0 {
		return Inst{}, false
	}
	idx := (pc - p.Base) / InstBytes
	if idx >= uint64(len(p.Code)) {
		return Inst{}, false
	}
	return p.Code[idx], true
}

// End returns the first PC past the code image.
func (p *Program) End() uint64 { return p.Base + uint64(len(p.Code))*InstBytes }

// Label returns the PC of a label, panicking if it is unknown. Intended for
// tests and experiment harnesses that need to reference program points.
func (p *Program) Label(name string) uint64 {
	pc, ok := p.Labels[name]
	if !ok {
		panic(fmt.Sprintf("isa: unknown label %q", name))
	}
	return pc
}
