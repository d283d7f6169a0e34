// Binary serialization of checkpoint sets, for the persistent checkpoint
// cache (sim.CkptCache). A sampled run's checkpoints share most of their
// pages copy-on-write — adjacent SimPoints differ by whatever the workload
// wrote between them — so the encoding dedups pages by identity: each
// distinct page is written once and checkpoints reference it by index. The
// decoded set reconstructs the same sharing (one *page per distinct page,
// referenced by every image that held it), so Materialize-and-write after a
// round-trip behaves exactly like the original copy-on-write images.
package emu

import (
	"fmt"
	"slices"

	"phelps/internal/codec"
	"phelps/internal/isa"
)

// ckptMagic guards against feeding arbitrary bytes to the decoder; the
// version byte invalidates old blobs if the format ever changes.
const ckptMagic uint32 = 0x50434b31 // "PCK1"

// ckptHeaderSize is the encoded length of one checkpoint's registers, PC,
// sequence number, halted flag and page-ref count; each page ref adds
// pageRefSize.
const (
	ckptHeaderSize = isa.NumRegs*8 + 8 + 8 + 1 + 4
	pageRefSize    = 8 + 4
)

// CheckpointsSize returns how many bytes EncodeCheckpoints appends for cks,
// so a caller can size the buffer first.
func CheckpointsSize(cks []*Checkpoint) int {
	seen := make(map[*page]struct{})
	n := 4 + 4 + 4
	for _, ck := range cks {
		n += ckptHeaderSize + pageRefSize*len(ck.Mem.pages)
		for _, p := range ck.Mem.pages {
			seen[p] = struct{}{}
		}
	}
	return n + pageSize*len(seen)
}

// EncodeCheckpoints appends a deterministic binary encoding of the
// checkpoint set to b, growing b once to the encoded size. The order of cks
// is preserved; shared pages are stored once.
func EncodeCheckpoints(b []byte, cks []*Checkpoint) []byte {
	// Assign indices to distinct pages in a deterministic order: checkpoints
	// in argument order, pages within a checkpoint in ascending page number.
	type ref struct {
		pn  uint64
		idx uint32
	}
	pageIdx := make(map[*page]uint32)
	var pages []*page
	refs := make([][]ref, len(cks))
	n := 4 + 4 + 4
	for i, ck := range cks {
		pns := make([]uint64, 0, len(ck.Mem.pages))
		for pn := range ck.Mem.pages {
			pns = append(pns, pn)
		}
		slices.Sort(pns)
		rs := make([]ref, 0, len(pns))
		for _, pn := range pns {
			p := ck.Mem.pages[pn]
			idx, ok := pageIdx[p]
			if !ok {
				idx = uint32(len(pages))
				pageIdx[p] = idx
				pages = append(pages, p)
			}
			rs = append(rs, ref{pn: pn, idx: idx})
		}
		refs[i] = rs
		n += ckptHeaderSize + pageRefSize*len(rs)
	}
	b = slices.Grow(b, n+pageSize*len(pages))

	b = codec.U32(b, ckptMagic)
	b = codec.U32(b, uint32(len(pages)))
	for _, p := range pages {
		b = append(b, p[:]...)
	}
	b = codec.U32(b, uint32(len(cks)))
	for i, ck := range cks {
		for _, r := range ck.Regs {
			b = codec.U64(b, r)
		}
		b = codec.U64(b, ck.PC)
		b = codec.U64(b, ck.Seq)
		b = codec.Bool(b, ck.Halted)
		b = codec.U32(b, uint32(len(refs[i])))
		for _, r := range refs[i] {
			b = codec.U64(b, r.pn)
			b = codec.U32(b, r.idx)
		}
	}
	return b
}

// DecodeCheckpoints decodes a checkpoint set from the reader, reconstructing
// the page sharing the encoder saw. Truncated or corrupted input returns an
// error; it never panics. Only the encoder's canonical form is accepted —
// page refs in ascending page number, pages numbered in first-reference
// order, none stored unreferenced — so whatever decodes re-encodes to the
// same bytes.
func DecodeCheckpoints(r *codec.Reader) ([]*Checkpoint, error) {
	if m := r.U32(); m != ckptMagic {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("emu: checkpoint magic %#x, want %#x", m, ckptMagic)
	}
	nPages := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Sanity-bound the page count by the bytes actually present so a
	// corrupted count cannot drive a huge allocation.
	if nPages < 0 || nPages*pageSize > r.Len() {
		return nil, fmt.Errorf("emu: checkpoint claims %d pages, %d bytes remain", nPages, r.Len())
	}
	pages := make([]*page, nPages)
	for i := range pages {
		raw := r.Bytes(pageSize)
		if raw == nil {
			return nil, r.Err()
		}
		p := new(page)
		copy(p[:], raw)
		pages[i] = p
	}
	nCks := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nCks < 0 || nCks > r.Len() {
		return nil, fmt.Errorf("emu: checkpoint claims %d checkpoints, %d bytes remain", nCks, r.Len())
	}
	cks := make([]*Checkpoint, nCks)
	nextIdx := 0 // the index the next first-referenced page must carry
	for i := range cks {
		ck := &Checkpoint{}
		for j := 0; j < isa.NumRegs; j++ {
			ck.Regs[j] = r.U64()
		}
		ck.PC = r.U64()
		ck.Seq = r.U64()
		ck.Halted = r.Bool()
		nRefs := int(r.U32())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nRefs < 0 || nRefs*12 > r.Len() {
			return nil, fmt.Errorf("emu: checkpoint %d claims %d page refs, %d bytes remain", i, nRefs, r.Len())
		}
		img := &MemImage{pages: make(map[uint64]*page, nRefs)}
		var prevPN uint64
		for j := 0; j < nRefs; j++ {
			pn := r.U64()
			idx := int(r.U32())
			if r.Err() != nil {
				return nil, r.Err()
			}
			if idx < 0 || idx >= len(pages) || idx > nextIdx {
				return nil, fmt.Errorf("emu: checkpoint %d references page %d of %d (next new page %d)", i, idx, len(pages), nextIdx)
			}
			if idx == nextIdx {
				nextIdx++
			}
			if j > 0 && pn <= prevPN {
				return nil, fmt.Errorf("emu: checkpoint %d page refs out of order at %#x", i, pn)
			}
			prevPN = pn
			img.pages[pn] = pages[idx]
		}
		ck.Mem = img
		cks[i] = ck
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nextIdx != len(pages) {
		return nil, fmt.Errorf("emu: checkpoint set stores %d pages, references %d", len(pages), nextIdx)
	}
	return cks, nil
}
