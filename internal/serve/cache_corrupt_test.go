package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"phelps/internal/fsio"
	"phelps/internal/sim"
)

// writeCacheFile persists a minimal valid cache file with n entries.
func writeCacheFile(t *testing.T, path string, schema, n int) {
	t.Helper()
	f := cacheFile{Schema: schema}
	for i := 0; i < n; i++ {
		f.Entries = append(f.Entries, cacheEntry{
			Key:    CellKey{WorkloadHash: uint64(i + 1), Config: sim.CfgBase},
			Result: &sim.Result{Cycles: uint64(100 + i), Retired: uint64(50 + i)},
		})
	}
	data, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResultCacheCorruption loads truncated, garbage, and version-skewed
// cache files: each must be a counted miss (LoadErrors) leaving the cache
// empty but fully usable — never a crash or a poisoned entry.
func TestResultCacheCorruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	good := filepath.Join(dir, "good.cache")
	writeCacheFile(t, good, cacheSchema, 3)
	gdata, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", gdata[:len(gdata)/2]},
		{"garbage", []byte("\x00\xffnot json either\x13")},
		{"empty", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.cache")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewResultCache()
			if err := c.LoadFile(path); err == nil {
				t.Error("corrupt cache loaded without error")
			}
			if c.LoadErrors() != 1 {
				t.Errorf("load_errors = %d, want 1", c.LoadErrors())
			}
			if c.Len() != 0 {
				t.Errorf("corrupt cache populated %d entries", c.Len())
			}
			// Still usable after the failed load.
			key := CellKey{WorkloadHash: 7, Config: sim.CfgBase}
			c.Put(key, &sim.Result{Cycles: 1})
			if _, ok := c.Get(key); !ok {
				t.Error("cache unusable after corrupt load")
			}
		})
	}

	t.Run("version-skew", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "skew.cache")
		writeCacheFile(t, path, cacheSchema+1, 3)
		c := NewResultCache()
		if err := c.LoadFile(path); err == nil {
			t.Error("schema-skewed cache loaded without error")
		}
		if c.LoadErrors() != 1 || c.Len() != 0 {
			t.Errorf("skew: load_errors=%d len=%d, want 1/0", c.LoadErrors(), c.Len())
		}
	})

	t.Run("good-file-still-loads", func(t *testing.T) {
		c := NewResultCache()
		if err := c.LoadFile(good); err != nil {
			t.Fatalf("good cache failed to load: %v", err)
		}
		if c.Len() != 3 || c.LoadErrors() != 0 {
			t.Errorf("good load: len=%d errors=%d, want 3/0", c.Len(), c.LoadErrors())
		}
	})
}

// TestResultCacheConcurrentCorruptLoad hammers a cache with concurrent
// corrupt loads, good loads, puts, and gets — the counters and map must stay
// coherent under the race detector.
func TestResultCacheConcurrentCorruptLoad(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	good := filepath.Join(dir, "good.cache")
	bad := filepath.Join(dir, "bad.cache")
	writeCacheFile(t, good, cacheSchema, 4)
	if err := os.WriteFile(bad, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewResultCache()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				switch i % 4 {
				case 0:
					_ = c.LoadFile(bad)
				case 1:
					_ = c.LoadFile(good)
				case 2:
					c.Put(CellKey{WorkloadHash: uint64(100 + k), Config: sim.CfgBase}, &sim.Result{Cycles: uint64(k)})
				default:
					c.Get(CellKey{WorkloadHash: uint64(100 + k), Config: sim.CfgBase})
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.LoadErrors(); got != 2*20 {
		t.Errorf("load_errors = %d, want 40 (every corrupt load counted)", got)
	}
	if c.Len() < 4 {
		t.Errorf("entries = %d, want >= 4 (good loads merged)", c.Len())
	}
}

// TestResultCacheSaveFaults drives SaveFile through ENOSPC and a torn write:
// the failure is counted, the live cache file is never clobbered, and a
// healed disk saves normally.
func TestResultCacheSaveFaults(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "results.cache")

	ffs := &fsio.FaultFS{}
	c := NewResultCacheFS(ffs)
	c.Put(CellKey{WorkloadHash: 1, Config: sim.CfgBase}, &sim.Result{Cycles: 42, Retired: 7})

	// A good save first, so faults have a live file to threaten.
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("baseline save: %v", err)
	}

	ffs.FailWrites(fsio.ErrNoSpace)
	c.Put(CellKey{WorkloadHash: 2, Config: sim.CfgBase}, &sim.Result{Cycles: 43})
	if err := c.SaveFile(path); err == nil {
		t.Error("ENOSPC save reported success")
	}
	if c.SaveErrors() != 1 {
		t.Errorf("save_errors = %d, want 1", c.SaveErrors())
	}
	ffs.FailWrites(nil)

	ffs.TornWrites(true)
	if err := c.SaveFile(path); err != nil {
		// A torn temp write that errors is also acceptable degradation.
		t.Logf("torn save returned error: %v", err)
	}
	ffs.TornWrites(false)

	// Whatever the faults did, the live file either holds the baseline or a
	// newer complete snapshot — a fresh cache must load it without error, or
	// count a clean degradation (torn rename landed a truncated file).
	c2 := NewResultCacheFS(fsio.OS)
	if err := c2.LoadFile(path); err != nil {
		if c2.LoadErrors() != 1 {
			t.Errorf("torn file load not counted: %v", err)
		}
	} else if c2.Len() == 0 {
		t.Error("live cache file lost the baseline entry")
	}

	// Healed: save and reload round-trips everything.
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("post-heal save: %v", err)
	}
	c3 := NewResultCacheFS(fsio.OS)
	if err := c3.LoadFile(path); err != nil {
		t.Fatalf("post-heal load: %v", err)
	}
	if c3.Len() != c.Len() {
		t.Errorf("post-heal round-trip: %d entries, want %d", c3.Len(), c.Len())
	}
}

// TestResultCacheFileEncoding: SaveFile's entry-by-entry encoding writes the
// bytes json.Marshal gives for the whole file, empty or not, with HTML-
// escaped strings and sampled reports, whatever the size hint.
func TestResultCacheFileEncoding(t *testing.T) {
	t.Parallel()
	sampled := &sim.Result{Cycles: 165058, Retired: 246822, Sampled: &sim.SampleReport{
		TotalInsts: 246822, IntervalLen: 4000, Intervals: 62,
		Points: []sim.PointResult{{Interval: 6, Weight: 0.2096774193548387, IPC: 0.9, MPKI: 12.5}},
	}}
	for name, entries := range map[string][]cacheEntry{
		"empty": {},
		"entries": {
			{Key: CellKey{WorkloadHash: 1, Config: sim.CfgBase}, Result: &sim.Result{Cycles: 42, Retired: 7}},
			{Key: CellKey{WorkloadHash: 2, Config: "a<b&c>", Seed: 7, Sampled: true, Flags: "checks"}, Result: sampled},
		},
	} {
		want, err := json.Marshal(&cacheFile{Schema: cacheSchema, Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []int{0, 16, len(want)} {
			got, err := encodeCacheFile(entries, hint)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s, hint %d: encoded\n%s\nwant\n%s", name, hint, got, want)
			}
		}
	}
}
