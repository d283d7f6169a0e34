package sim

import (
	"reflect"
	"testing"

	"phelps/internal/fsio"
)

// TestCkptCacheDiskFaults drives the checkpoint cache through the three
// canonical disk faults via the fsio seam — ENOSPC on store, a torn artifact
// write, and bit-rot on load — and requires each to degrade to counted
// errors with bit-identical Results, never a crash or a wrong artifact.
func TestCkptCacheDiskFaults(t *testing.T) {
	spec, cfg := dlSpec(), DefaultConfig()
	want := mustSampled(t, spec, cfg, SampleConfig{Ckpts: NewCkptCache(t.TempDir())})

	t.Run("enospc-store", func(t *testing.T) {
		dir := t.TempDir()
		ffs := &fsio.FaultFS{}
		ffs.FailWrites(fsio.ErrNoSpace)
		c := NewCkptCacheFS(dir, ffs)
		got := mustSampled(t, spec, cfg, SampleConfig{Ckpts: c})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("result diverged under ENOSPC")
		}
		if e, s := c.Errors(), c.Stores(); e != 1 || s != 0 {
			t.Errorf("ENOSPC store: errors=%d stores=%d, want 1/0", e, s)
		}
		// Disk healed: a fresh boot on the same directory (the in-memory layer
		// is gone, and nothing reached disk) re-profiles and stores normally.
		ffs.FailWrites(nil)
		c2 := NewCkptCacheFS(dir, ffs)
		mustSampled(t, spec, cfg, SampleConfig{Ckpts: c2})
		if m, s := c2.Misses(), c2.Stores(); m != 1 || s != 1 {
			t.Errorf("post-heal misses=%d stores=%d, want 1/1", m, s)
		}
	})

	t.Run("torn-store", func(t *testing.T) {
		dir := t.TempDir()
		ffs := &fsio.FaultFS{}
		ffs.TornWrites(true)
		c := NewCkptCacheFS(dir, ffs)
		got := mustSampled(t, spec, cfg, SampleConfig{Ckpts: c})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("result diverged under torn writes")
		}
		ffs.TornWrites(false)
		// The torn artifact must read as a counted error + miss on the next
		// boot, then be overwritten by a good one.
		c2 := NewCkptCacheFS(dir, ffs)
		got2 := mustSampled(t, spec, cfg, SampleConfig{Ckpts: c2})
		if e, m, s := c2.Errors(), c2.Misses(), c2.Stores(); e != 1 || m != 1 || s != 1 {
			t.Errorf("torn artifact load: errors=%d misses=%d stores=%d, want 1/1/1", e, m, s)
		}
		if !reflect.DeepEqual(want, got2) {
			t.Errorf("re-profiled result diverged after torn write")
		}
	})

	t.Run("bit-rot-load", func(t *testing.T) {
		dir := t.TempDir()
		mustSampled(t, spec, cfg, SampleConfig{Ckpts: NewCkptCache(dir)})
		ffs := &fsio.FaultFS{}
		ffs.BitRot(true)
		c := NewCkptCacheFS(dir, ffs)
		got := mustSampled(t, spec, cfg, SampleConfig{Ckpts: c})
		if e, m := c.Errors(), c.Misses(); e != 1 || m != 1 {
			t.Errorf("bit-rot load: errors=%d misses=%d, want 1/1", e, m)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("result diverged under bit-rot")
		}
	})
}
