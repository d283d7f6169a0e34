package emu

import (
	"testing"

	"phelps/internal/isa"
)

// sumLoop builds a small store/load/branch kernel: writes i to a[i], reads
// it back, accumulates the sum in T5, for n iterations starting at base.
func sumLoop(n int64) *isa.Program {
	return prog(0,
		isa.Inst{Op: isa.ADDI, Rd: isa.T3, Rs1: isa.X0, Imm: 0x1000}, // ptr
		isa.Inst{Op: isa.ADDI, Rd: isa.T2, Rs1: isa.X0, Imm: n},
		isa.Inst{Op: isa.SD, Rs1: isa.T3, Rs2: isa.T1, Imm: 0}, // 0x8: loop
		isa.Inst{Op: isa.LD, Rd: isa.T4, Rs1: isa.T3, Imm: 0},
		isa.Inst{Op: isa.ADD, Rd: isa.T5, Rs1: isa.T5, Rs2: isa.T4},
		isa.Inst{Op: isa.ADDI, Rd: isa.T3, Rs1: isa.T3, Imm: 8},
		isa.Inst{Op: isa.ADDI, Rd: isa.T1, Rs1: isa.T1, Imm: 1},
		isa.Inst{Op: isa.BNE, Rs1: isa.T1, Rs2: isa.T2, Imm: -20}, // -> 0x8
		isa.Inst{Op: isa.HALT},
	)
}

// stepN advances e by up to n instructions via Step, retiring stores
// immediately (so the architectural view tracks program order, matching
// FastForward's in-place stores).
func stepN(t *testing.T, e *Emulator, n uint64) uint64 {
	t.Helper()
	var executed uint64
	for executed < n {
		d, ok := e.Step()
		if !ok {
			break
		}
		if d.Inst.Op.IsStore() {
			if err := e.Mem.RetireStore(d.Seq, d.Addr, d.MemSize, d.StoreVal); err != nil {
				t.Fatal(err)
			}
		}
		executed++
	}
	return executed
}

func TestFastForwardMatchesStep(t *testing.T) {
	p := sumLoop(100)
	ff := New(p, NewMemory())
	st := New(p, NewMemory())

	// Advance both in mismatched chunk sizes and compare full architectural
	// state after each chunk.
	for chunk := uint64(1); !ff.Halted; chunk = chunk*2 + 1 {
		nf := ff.FastForward(chunk, nil)
		ns := stepN(t, st, chunk)
		if nf != ns {
			t.Fatalf("executed %d via FastForward, %d via Step", nf, ns)
		}
		if ff.PC != st.PC || ff.Seq != st.Seq || ff.Halted != st.Halted {
			t.Fatalf("state diverged: FF pc=%#x seq=%d halted=%v, Step pc=%#x seq=%d halted=%v",
				ff.PC, ff.Seq, ff.Halted, st.PC, st.Seq, st.Halted)
		}
		if ff.Regs != st.Regs {
			t.Fatalf("registers diverged at seq %d", ff.Seq)
		}
	}
	for a := uint64(0x1000); a < 0x1000+100*8; a += 8 {
		if f, s := ff.Mem.ReadArch(a, 8), st.Mem.ReadArch(a, 8); f != s {
			t.Fatalf("mem[%#x]: FF %d, Step %d", a, f, s)
		}
	}
	if !st.Halted {
		t.Fatal("program did not halt")
	}
}

func TestFastForwardRespectsMaxInsts(t *testing.T) {
	e := New(sumLoop(100), NewMemory())
	e.MaxInsts = 10
	if n := e.FastForward(1000, nil); n != 10 {
		t.Fatalf("executed %d, want 10", n)
	}
	if e.FastForward(1000, nil) != 0 {
		t.Fatal("FastForward past MaxInsts executed instructions")
	}
}

func TestFastForwardObserver(t *testing.T) {
	var loads, stores, branches, blockInsts uint64
	obs := &FFObserver{
		Branch: func(pc uint64, taken bool) { branches++ },
		Load:   func(pc, addr uint64, size int) { loads++ },
		Store:  func(addr uint64, size int) { stores++ },
		Block:  func(head, n uint64) { blockInsts += n },
	}
	e := New(sumLoop(50), NewMemory())
	n := e.FastForward(1_000_000, obs)
	if !e.Halted {
		t.Fatal("expected halt")
	}
	if loads != 50 || stores != 50 || branches != 50 {
		t.Fatalf("loads=%d stores=%d branches=%d, want 50 each", loads, stores, branches)
	}
	// Every executed instruction is attributed to exactly one block.
	if blockInsts != n {
		t.Fatalf("block insts %d != executed %d", blockInsts, n)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := NewMemory()
	m.SetU64(0x100, 1)
	m.SetU64(0x5000, 2) // second page

	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Writes to the original after the snapshot must not leak into the image.
	m.SetU64(0x100, 99)
	m.SetU64(0x9000, 3) // brand-new page

	c1 := img.Materialize()
	if got := c1.U64(0x100); got != 1 {
		t.Fatalf("image saw post-snapshot write: %d", got)
	}
	if got := c1.U64(0x5000); got != 2 {
		t.Fatalf("image page 2 = %d, want 2", got)
	}
	if got := c1.U64(0x9000); got != 0 {
		t.Fatalf("image saw post-snapshot page: %d", got)
	}

	// Writes to one materialized copy must not leak into another, the image,
	// or the original.
	c1.SetU64(0x5000, 77)
	c2 := img.Materialize()
	if got := c2.U64(0x5000); got != 2 {
		t.Fatalf("second copy saw first copy's write: %d", got)
	}
	if got := m.U64(0x5000); got != 2 {
		t.Fatalf("original saw copy's write: %d", got)
	}
	if got := m.U64(0x100); got != 99 {
		t.Fatalf("original lost its own write: %d", got)
	}
}

func TestSnapshotRejectsPendingStores(t *testing.T) {
	m := NewMemory()
	m.StagePendingStore(0, 0x100, 8, 1)
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("expected snapshot with pending stores to fail")
	}
	if err := m.RetireStore(0, 0x100, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("snapshot after retire: %v", err)
	}
}

func TestCheckpointResumeDeterminism(t *testing.T) {
	p := sumLoop(200)
	e := New(p, NewMemory())
	e.FastForward(300, nil)

	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	finish := func(e *Emulator) (regs [isa.NumRegs]uint64, sum uint64) {
		e.FastForward(1_000_000, nil)
		if !e.Halted {
			t.Fatal("resumed run did not halt")
		}
		return e.Regs, e.Mem.ReadArch(0x1000+199*8, 8)
	}

	r1, _ := ck.Resume(p)
	r2, _ := ck.Resume(p)
	if r1.PC != e.PC || r1.Seq != e.Seq || r1.Regs != e.Regs {
		t.Fatal("resume did not restore the checkpointed state")
	}
	regs1, last1 := finish(r1)
	regs2, last2 := finish(r2)
	regsO, lastO := finish(e) // the original continues past its checkpoint
	if regs1 != regs2 || last1 != last2 {
		t.Fatal("two resumes of one checkpoint diverged")
	}
	if regs1 != regsO || last1 != lastO {
		t.Fatal("resumed run diverged from the original continuing")
	}
}

// TestReadArchPageCacheFollowsCopyOnWrite: ReadArch caches the last page it
// read; when the first write after a snapshot clones that page, later reads
// must come from the clone, and the snapshot keeps the old bytes.
func TestReadArchPageCacheFollowsCopyOnWrite(t *testing.T) {
	for _, m := range []*Memory{NewMemory(), nil} {
		if m == nil {
			// A materialized memory starts with every page frozen.
			src := NewMemory()
			src.SetU64(0x1000, 1)
			img, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			m = img.Materialize()
		} else {
			m.SetU64(0x1000, 1)
		}
		if got := m.U64(0x1000); got != 1 { // caches the page
			t.Fatalf("read %d, want 1", got)
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m.SetU64(0x1008, 2) // clones the cached page
		if got := m.U64(0x1008); got != 2 {
			t.Fatalf("read after copy-on-write = %d, want 2", got)
		}
		if got := m.ReadProgram(0x1008, 8); got != 2 {
			t.Fatalf("program-order read after copy-on-write = %d, want 2", got)
		}
		if got := img.Materialize().U64(0x1008); got != 0 {
			t.Fatalf("snapshot saw a later write: %d", got)
		}
	}
}
