// Package codec provides the little-endian append/read primitives shared by
// the binary state serializers (bpred, cache, emu, the sim checkpoint cache,
// the perfmodel model and the phelpsd journal). The writers are thin
// wrappers over encoding/binary's append forms; the Reader is the important
// half: it is sticky-error and bounds-checked, so a truncated or corrupted
// byte stream decodes to an error — never a panic — which the checkpoint
// cache turns into a plain cache miss. Seal and Unseal add and check the
// FNV-1a-64 trailer every on-disk format (PSC1, PPM1, PJW1) ends its blobs
// or records with.
package codec

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShort reports a read past the end of the buffer (truncation) or a
// trailing-garbage check failure.
var ErrShort = errors.New("codec: short or malformed buffer")

// ErrChecksum reports a sealed blob whose FNV-1a trailer does not match its
// body.
var ErrChecksum = errors.New("codec: checksum mismatch")

// FNV-1a 64-bit parameters, shared by the seal trailer and the simulator's
// content hashes.
const (
	FNVOffset64 uint64 = 14695981039346656037
	FNVPrime64  uint64 = 1099511628211
)

// Sum64 returns the FNV-1a-64 hash of b.
func Sum64(b []byte) uint64 {
	h := FNVOffset64
	for _, c := range b {
		h = (h ^ uint64(c)) * FNVPrime64
	}
	return h
}

// Seal appends the FNV-1a-64 sum of b[start:] to b. The trailer catches bit
// flips anywhere in the sealed span, which field-level bounds checks alone
// would miss (e.g. inside page data).
func Seal(b []byte, start int) []byte { return U64(b, Sum64(b[start:])) }

// Unseal verifies a blob produced by Seal (with start at its first byte) and
// returns the body without its trailer, aliasing b.
func Unseal(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, ErrShort
	}
	body := b[:len(b)-8]
	if binary.LittleEndian.Uint64(b[len(body):]) != Sum64(body) {
		return nil, ErrChecksum
	}
	return body, nil
}

// U64 appends v little-endian.
func U64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// U32 appends v little-endian.
func U32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// U16 appends v little-endian.
func U16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// U8 appends one byte.
func U8(b []byte, v uint8) []byte { return append(b, v) }

// I64 appends v as its two's-complement bits.
func I64(b []byte, v int64) []byte { return U64(b, uint64(v)) }

// F64 appends v's IEEE-754 bits, so the round-trip is exact (including NaN
// payloads and signed zeros) — weighted reconstructions must be bit-identical
// across a serialize/deserialize cycle.
func F64(b []byte, v float64) []byte { return U64(b, math.Float64bits(v)) }

// Bool appends a 0/1 byte.
func Bool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader consumes a buffer front-to-back with sticky-error semantics: the
// first out-of-bounds read latches Err and every later read returns zero
// values, so decoders can run their full field sequence and check Err once.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps b for reading.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first read failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the unread byte count.
func (r *Reader) Len() int { return len(r.b) }

// Expect fails the reader unless exactly n bytes remain unread. Decoders call
// Expect(0) last so trailing garbage is rejected like truncation.
func (r *Reader) Expect(n int) error {
	if r.err == nil && len(r.b) != n {
		r.err = ErrShort
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I64 reads a two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a 0/1 byte; any other value is a malformed buffer.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 && r.err == nil {
		r.err = ErrShort
	}
	return v == 1
}

// Bytes reads exactly n bytes, aliasing the underlying buffer (callers that
// retain the slice must copy). A negative or over-long n fails the reader.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 {
		if r.err == nil {
			r.err = ErrShort
		}
		return nil
	}
	return r.take(n)
}
