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
