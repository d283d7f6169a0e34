package emu

import (
	"testing"

	"phelps/internal/codec"
)

// takeCheckpoints fast-forwards a sumLoop workload and checkpoints at a few
// positions, returning the checkpoints and the program.
func takeCheckpoints(t *testing.T) []*Checkpoint {
	t.Helper()
	p := sumLoop(2000)
	mem := NewMemory()
	// A read-only region the loop never writes: its pages stay shared by
	// identity across every checkpoint, which is what the encoder dedups.
	for i := uint64(0); i < 2048; i++ {
		mem.SetU64(0x100000+8*i, i*i)
	}
	e := New(p, mem)
	var cks []*Checkpoint
	for _, stop := range []uint64{100, 3000, 7000} {
		for e.Seq < stop && !e.Halted {
			e.FastForward(stop-e.Seq, nil)
		}
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, ck)
	}
	return cks
}

// TestCheckpointsEncodeDecodeRoundTrip: a decoded checkpoint set resumes to
// exactly the same final state as the original.
func TestCheckpointsEncodeDecodeRoundTrip(t *testing.T) {
	p := sumLoop(2000)
	cks := takeCheckpoints(t)
	blob := EncodeCheckpoints(nil, cks)
	if n := CheckpointsSize(cks); n != len(blob) {
		t.Fatalf("CheckpointsSize %d, EncodeCheckpoints wrote %d", n, len(blob))
	}
	// Deterministic encoding: same set, same bytes.
	if b2 := EncodeCheckpoints(nil, cks); string(blob) != string(b2) {
		t.Fatalf("EncodeCheckpoints is not deterministic")
	}

	r := codec.NewReader(blob)
	got, err := DecodeCheckpoints(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Expect(0); err != nil {
		t.Fatalf("trailing bytes after decode: %d", r.Len())
	}
	if len(got) != len(cks) {
		t.Fatalf("decoded %d checkpoints, want %d", len(got), len(cks))
	}
	for i := range cks {
		if got[i].Regs != cks[i].Regs || got[i].PC != cks[i].PC ||
			got[i].Seq != cks[i].Seq || got[i].Halted != cks[i].Halted {
			t.Fatalf("checkpoint %d header mismatch", i)
		}
		// Resume both and run to HALT: identical final architectural state.
		ea, ma := cks[i].Resume(p)
		eb, mb := got[i].Resume(p)
		ea.FastForward(1<<30, nil)
		eb.FastForward(1<<30, nil)
		if ea.Regs != eb.Regs || ea.PC != eb.PC || ea.Seq != eb.Seq {
			t.Fatalf("checkpoint %d: resumed runs diverged", i)
		}
		if diffs := ma.DiffArch(mb, 4); len(diffs) != 0 {
			t.Fatalf("checkpoint %d: memory diverged after resume: %v", i, diffs)
		}
	}
	// Page sharing must survive the round-trip: checkpoints 2 and 3 share
	// their untouched pages by identity in the decoded set too.
	shared := 0
	for pn, pa := range got[1].Mem.pages {
		if pb, ok := got[2].Mem.pages[pn]; ok && pa == pb {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("decoded checkpoints share no pages; dedup lost")
	}
}

// TestDecodeCheckpointsRejectsCorruption: truncations and bit flips are
// errors (or, for flips inside page data, at worst different data — never a
// panic); the checkpoint cache layers a whole-file checksum on top.
func TestDecodeCheckpointsRejectsCorruption(t *testing.T) {
	blob := EncodeCheckpoints(nil, takeCheckpoints(t))
	for _, cut := range []int{0, 3, 4, 8, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeCheckpoints(codec.NewReader(blob[:cut])); err == nil {
			t.Fatalf("decode accepted truncation to %d bytes", cut)
		}
	}
	// Trailing garbage fails the Expect(0) contract used by callers.
	r := codec.NewReader(append(append([]byte(nil), blob...), 0xff))
	if _, err := DecodeCheckpoints(r); err != nil {
		t.Fatalf("decode of valid prefix failed: %v", err)
	}
	if err := r.Expect(0); err == nil {
		t.Fatalf("Expect(0) accepted trailing garbage")
	}
	// Corrupt the magic.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := DecodeCheckpoints(codec.NewReader(bad)); err == nil {
		t.Fatalf("decode accepted corrupted magic")
	}
	// Corrupt the page count upward: claims more pages than bytes remain.
	bad = append([]byte(nil), blob...)
	bad[4] = 0xff
	bad[5] = 0xff
	if _, err := DecodeCheckpoints(codec.NewReader(bad)); err == nil {
		t.Fatalf("decode accepted inflated page count")
	}
}
