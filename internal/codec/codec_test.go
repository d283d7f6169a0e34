package codec

import (
	"errors"
	"testing"
)

// TestSealUnseal: a sealed span round-trips, and truncation or a flipped bit
// anywhere in the body or trailer is rejected.
func TestSealUnseal(t *testing.T) {
	prefix := []byte("len:")
	b := Seal(append(prefix, "payload"...), len(prefix))
	if got := U64(nil, Sum64([]byte("payload"))); string(b[len(b)-8:]) != string(got) {
		t.Fatalf("trailer %x, want %x", b[len(b)-8:], got)
	}
	body, err := Unseal(b[len(prefix):])
	if err != nil || string(body) != "payload" {
		t.Fatalf("Unseal = %q, %v", body, err)
	}
	if _, err := Unseal(b[:7]); !errors.Is(err, ErrShort) {
		t.Errorf("short blob: err = %v, want ErrShort", err)
	}
	for i := len(prefix); i < len(b); i++ {
		bad := append([]byte(nil), b[len(prefix):]...)
		bad[i-len(prefix)] ^= 0x10
		if _, err := Unseal(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("flip at %d: err = %v, want ErrChecksum", i, err)
		}
	}
	// The FNV-1a-64 reference value of the empty input is the offset basis.
	if Sum64(nil) != FNVOffset64 {
		t.Errorf("Sum64(nil) = %#x", Sum64(nil))
	}
}

// TestUvarint: values round-trip at their UvarintSize, and a non-shortest,
// truncated or overflowing encoding fails the reader.
func TestUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<63 - 1, 1<<64 - 1} {
		b := Uvarint(nil, v)
		if len(b) != UvarintSize(v) {
			t.Errorf("Uvarint(%d) wrote %d bytes, UvarintSize says %d", v, len(b), UvarintSize(v))
		}
		r := NewReader(b)
		if got := r.Uvarint(); got != v || r.Expect(0) != nil {
			t.Errorf("Uvarint(%d) read back %d (err %v)", v, got, r.Err())
		}
	}
	for name, b := range map[string][]byte{
		"zero in two bytes":  {0x80, 0x00},
		"one in three bytes": {0x81, 0x80, 0x00},
		"truncated":          {0x80},
		"empty":              {},
		"overflow":           {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		r := NewReader(b)
		if v := r.Uvarint(); !errors.Is(r.Err(), ErrShort) {
			t.Errorf("%s: read %d, err %v, want ErrShort", name, v, r.Err())
		}
	}
}

// TestHeader: a header round-trips as its magic then its schema word, and a
// short buffer or another magic or schema fails the reader, latching the
// error for every later read.
func TestHeader(t *testing.T) {
	const magic, schema = 0x50524331, 1 // "PRC1"
	b := Header([]byte("x"), magic, schema)
	if got := string(b); got != "x1CRP\x01\x00\x00\x00" || len(b) != 1+HeaderSize {
		t.Fatalf("Header wrote %q", got)
	}
	r := NewReader(b[1:])
	if err := r.Header(magic, schema); err != nil || r.Len() != 0 {
		t.Fatalf("Header read: err %v, %d bytes left", err, r.Len())
	}
	for name, tc := range map[string]struct {
		b    []byte
		want error
	}{
		"short":       {b[1:7], ErrShort},
		"empty":       {nil, ErrShort},
		"other magic": {Header(nil, magic+1, schema), ErrForeignFile},
		"skewed":      {Header(nil, magic, schema+1), ErrForeignFile},
	} {
		// One byte after the header proves the error latches.
		r := NewReader(append(append([]byte(nil), tc.b...), 7))
		if err := r.Header(magic, schema); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", name, err, tc.want)
		}
		if v := r.U8(); v != 0 || !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: a later read returned %d with err %v", name, v, r.Err())
		}
	}
}
