package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"phelps/internal/codec"
	"phelps/internal/fsio"
	"phelps/internal/sim"
)

// testEntry is the i'th distinct cell the results-log tests store.
func testEntry(i int) (CellKey, *sim.Result) {
	return CellKey{WorkloadHash: uint64(i + 1), Config: sim.CfgBase},
		&sim.Result{Cycles: uint64(100 + i), Retired: uint64(50 + i)}
}

// frameSize is the bytes one Put of (key, res) appends: a length word, the
// record's JSON and an 8-byte trailer.
func frameSize(t *testing.T, key CellKey, res *sim.Result) int64 {
	t.Helper()
	payload, err := json.Marshal(&cacheEntry{Key: key, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	return int64(4 + len(payload) + 8)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// openLog opens the results log at path and closes it with the test. A load
// error fails the test.
func openLog(t *testing.T, fs fsio.FS, path string) *ResultCache {
	t.Helper()
	c := NewResultCacheFS(fs)
	if err := c.Open(path); err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// writeLog writes a results log of n test entries at path through Put and
// returns its bytes.
func writeLog(t *testing.T, path string, n int) []byte {
	t.Helper()
	c := NewResultCacheFS(nil)
	if err := c.Open(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.Put(testEntry(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResultsLogFormatPinned pins the PRC1 on-disk bytes: the header, and one
// record's length word, key JSON and FNV-1a trailer (the trailer is the sum of
// the whole payload, so it pins the result's JSON too). A reopen of the clean
// log replays it without rewriting the file.
func TestResultsLogFormatPinned(t *testing.T) {
	t.Parallel()
	const (
		header = "3143525001000000" // magic "PRC1", schema 1
		length = "2a030000"         // payload bytes (810)
		key    = `{"key":{"workload_hash":4660,"config":"phelps","seed":42,"sampled":true,"flags":"checks,"},"result":{"Cycles":146282,"Retired":99000,`
		sum    = "8cbae9756b717206" // FNV-1a trailer
	)
	path := filepath.Join(t.TempDir(), "results.cache")
	c := NewResultCacheFS(nil)
	if err := c.Open(path); err != nil {
		t.Fatal(err)
	}
	c.Put(CellKey{WorkloadHash: 0x1234, Config: sim.CfgPhelps, Seed: 42, Sampled: true, Flags: "checks,"},
		&sim.Result{Cycles: 146282, Retired: 99000, Halted: true})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 20+len(key) {
		t.Fatalf("log is %d bytes", len(data))
	}
	payload := data[12 : len(data)-8]
	for _, f := range []struct{ name, got, want string }{
		{"header", fmt.Sprintf("%x", data[:8]), header},
		{"length", fmt.Sprintf("%x", data[8:12]), length},
		{"key", string(payload[:len(key)]), key},
		{"trailer", fmt.Sprintf("%x", data[len(data)-8:]), sum},
	} {
		if f.got != f.want {
			t.Errorf("%s changed:\n  got  %s\n  want %s", f.name, f.got, f.want)
		}
	}

	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2 := openLog(t, nil, path); c2.Len() != 1 {
		t.Errorf("reopen replayed %d entries, want 1", c2.Len())
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || after.Size() != int64(len(data)) {
		t.Error("opening a clean log rewrote it")
	}
}

// TestResultCachePutIsDurable: a result is in the log when Put returns, with
// no job end, sync or close, and every Put grows the file by exactly its one
// frame, also when Puts and Loads from several goroutines race Sync.
func TestResultCachePutIsDurable(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "results.cache")
	c := openLog(t, nil, path)

	key, res := testEntry(0)
	start := fileSize(t, path)
	c.Put(key, res)
	if got, want := fileSize(t, path)-start, frameSize(t, key, res); got != want {
		t.Fatalf("one Put grew the log by %d bytes, want %d", got, want)
	}
	if got, err := openLog(t, nil, path).Load(key); err != nil || !reflect.DeepEqual(got, res) {
		t.Fatalf("a second cache on the log did not see the Put: %+v, %v", got, err)
	}

	const writers, perWriter = 4, 25
	start = fileSize(t, path)
	stop := make(chan struct{})
	var syncer sync.WaitGroup
	syncer.Add(1)
	go func() {
		defer syncer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Sync()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key, res := testEntry(1 + w*perWriter + i)
				c.Put(key, res)
				if got, err := c.Load(key); err != nil || !reflect.DeepEqual(got, res) {
					t.Errorf("entry %d loaded as %+v, %v while others append", 1+w*perWriter+i, got, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	syncer.Wait()

	const total = 1 + writers*perWriter
	want := start
	for i := 1; i < total; i++ {
		key, res := testEntry(i)
		want += frameSize(t, key, res)
	}
	if got := fileSize(t, path); got != want {
		t.Errorf("log is %d bytes after the concurrent Puts, want %d", got, want)
	}
	if c.Saves() != total || c.SaveErrors() != 0 || c.Resident() != 0 {
		t.Errorf("saves=%d save_errors=%d resident=%d, want %d/0/0", c.Saves(), c.SaveErrors(), c.Resident(), total)
	}
	c2 := openLog(t, nil, path)
	if c2.Len() != total || c2.LoadErrors() != 0 || c2.Resident() != 0 {
		t.Fatalf("reopen: %d entries, %d load errors, %d resident, want %d/0/0", c2.Len(), c2.LoadErrors(), c2.Resident(), total)
	}
	for i := 0; i < total; i++ {
		key, res := testEntry(i)
		for _, rc := range []*ResultCache{c, c2} {
			if got, err := rc.Load(key); err != nil || !reflect.DeepEqual(got, res) {
				t.Errorf("entry %d loaded as %+v, %v", i, got, err)
			}
		}
	}
}

// TestResultCacheCorruption opens damaged results logs: each is one counted
// load error that keeps the records before the damage, the file is repaired
// at open, and a later append replays. A missing, empty or clean file opens
// without an error.
func TestResultCacheCorruption(t *testing.T) {
	t.Parallel()
	good := writeLog(t, filepath.Join(t.TempDir(), "good.cache"), 3)
	// Frame i spans [ends[i], ends[i+1]); ends[0] is the header's end.
	ends := []int{8}
	for i := 0; i < 3; i++ {
		key, res := testEntry(i)
		ends = append(ends, ends[i]+int(frameSize(t, key, res)))
	}
	if ends[3] != len(good) {
		t.Fatalf("log is %d bytes, frames end at %d", len(good), ends[3])
	}
	flipped := append([]byte(nil), good...)
	flipped[ends[1]+20] ^= 0x40
	skewed := append(codec.U32(codec.U32(nil, resultsMagic), resultsSchema+1), good[8:]...)
	// The whole-file JSON snapshot earlier builds wrote to the same path.
	key, res := testEntry(0)
	parent, err := json.Marshal(struct {
		Schema  int          `json:"schema"`
		Entries []cacheEntry `json:"entries"`
	}{1, []cacheEntry{{Key: key, Result: res}}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		data     []byte // nil: no file
		keep     int
		loadErrs uint64
	}{
		{"missing", nil, 0, 0},
		{"empty", []byte{}, 0, 0},
		{"good-file-still-loads", good, 3, 0},
		{"torn-tail", append(append([]byte(nil), good...), 0x20, 0x00, 0x00), 3, 1},
		{"truncated", good[:ends[2]+10], 2, 1},
		{"bit-flip", flipped, 1, 1},
		{"garbage", []byte("\x00\xffnot a results log\x13"), 0, 1},
		{"parent-format", parent, 0, 1},
		{"version-skew", skewed, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "results.cache")
			if tc.data != nil {
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			c := NewResultCacheFS(nil)
			err := c.Open(path)
			if (err != nil) != (tc.loadErrs > 0) || c.LoadErrors() != tc.loadErrs {
				t.Errorf("open: error %v, %d load errors, want %d", err, c.LoadErrors(), tc.loadErrs)
			}
			if c.Len() != tc.keep {
				t.Errorf("kept %d entries, want %d", c.Len(), tc.keep)
			}
			key, res := testEntry(9)
			c.Put(key, res)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if c.SaveErrors() != 0 {
				t.Errorf("save_errors = %d, want 0", c.SaveErrors())
			}
			c2 := openLog(t, nil, path)
			if c2.Len() != tc.keep+1 || c2.LoadErrors() != 0 {
				t.Errorf("reopen: %d entries, %d load errors, want %d/0", c2.Len(), c2.LoadErrors(), tc.keep+1)
			}
			if _, ok := c2.Get(key); !ok {
				t.Error("the append after the repair did not replay")
			}
		})
	}
}

// TestResultCacheSaveFaults drives the log through disk faults: an ENOSPC
// append and a torn one (which does not read back) are counted and their
// entries still served from memory, a torn append loses only its own record
// at the next open, and a healed disk appends again. A log that cannot be
// created at open leaves a memory-only cache.
func TestResultCacheSaveFaults(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "results.cache")
	ffs := &fsio.FaultFS{}
	c := NewResultCacheFS(ffs)
	if err := c.Open(path); err != nil {
		t.Fatal(err)
	}
	key0, res0 := testEntry(0)
	c.Put(key0, res0)

	ffs.FailWrites(fsio.ErrNoSpace)
	key1, res1 := testEntry(1)
	c.Put(key1, res1)
	if c.SaveErrors() != 1 {
		t.Errorf("save_errors = %d after an ENOSPC append, want 1", c.SaveErrors())
	}
	if got, err := c.Load(key1); err != nil || !reflect.DeepEqual(got, res1) {
		t.Errorf("an entry whose append failed is not served: %+v, %v", got, err)
	}
	ffs.FailWrites(nil)

	// A torn write reports success, but it does not read back: the entry
	// is counted and stays resident.
	ffs.TornWrites(true)
	key2, res2 := testEntry(2)
	c.Put(key2, res2)
	ffs.TornWrites(false)
	if c.Saves() != 1 || c.SaveErrors() != 2 || c.Resident() != 2 {
		t.Errorf("saves=%d save_errors=%d resident=%d, want 1/2/2", c.Saves(), c.SaveErrors(), c.Resident())
	}
	if got, err := c.Load(key2); err != nil || !reflect.DeepEqual(got, res2) {
		t.Errorf("an entry that did not read back is not served: %+v, %v", got, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := NewResultCacheFS(ffs)
	if err := c2.Open(path); !errors.Is(err, codec.ErrShort) {
		t.Errorf("open after a torn append: %v, want a torn frame", err)
	}
	if c2.LoadErrors() != 1 || c2.Len() != 1 {
		t.Errorf("open after a torn append: %d load errors, %d entries, want 1/1", c2.LoadErrors(), c2.Len())
	}
	c2.Put(testEntry(3))
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if c3 := openLog(t, ffs, path); c3.Len() != 2 || c3.Resident() != 0 {
		t.Errorf("healed disk: %d entries replayed, %d resident, want 2/0", c3.Len(), c3.Resident())
	}

	// A log that replays but cannot be opened for appending keeps its
	// records resident.
	ffs.FailWrites(fsio.ErrNoSpace)
	c5 := NewResultCacheFS(ffs)
	if err := c5.Open(path); !errors.Is(err, fsio.ErrNoSpace) {
		t.Errorf("opening a log on a full disk: %v, want ENOSPC", err)
	}
	if got, err := c5.Load(key2); c5.Len() != 2 || c5.Resident() != 2 || err == nil || got != nil {
		t.Errorf("unopened log: %d entries, %d resident, torn entry loaded as %v, %v; want 2/2 and a miss", c5.Len(), c5.Resident(), got, err)
	}
	if got, err := c5.Load(key0); err != nil || !reflect.DeepEqual(got, res0) {
		t.Errorf("unopened log: replayed entry loaded as %+v, %v", got, err)
	}
	ffs.FailWrites(nil)

	ffs.FailWrites(fsio.ErrNoSpace)
	c4 := NewResultCacheFS(ffs)
	if err := c4.Open(filepath.Join(dir, "new.cache")); !errors.Is(err, fsio.ErrNoSpace) {
		t.Errorf("creating a log on a full disk: %v, want ENOSPC", err)
	}
	ffs.FailWrites(nil)
	key4, res4 := testEntry(4)
	c4.Put(key4, res4)
	if got, err := c4.Load(key4); err != nil || got != res4 || c4.SaveErrors() != 1 || c4.LoadErrors() != 0 {
		t.Errorf("memory-only cache: served %v, save_errors=%d load_errors=%d, want res/1/0",
			err, c4.SaveErrors(), c4.LoadErrors())
	}
}

// writeFrames writes a framed file at path: the header, then one sealed frame
// per payload, framed exactly as appendFrame writes them.
func writeFrames(t *testing.T, path string, magic, schema uint32, payloads ...[]byte) {
	t.Helper()
	data := codec.Header(nil, magic, schema)
	for _, p := range payloads {
		data = codec.U32(data, uint32(len(p)))
		start := len(data)
		data = codec.Seal(append(data, p...), start)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzResultCacheLoad: each line of the fuzzed input is one record payload,
// sealed and framed as Put writes it, so inputs get past the checksum to the
// record decoder. Any file must open without a panic; the cache holds exactly
// the leading records that decode with a result, and the load is an error
// exactly when a frame did not replay. Load then reads every replayed key
// back: with rot unset it must return the record's result, and with rot set
// every read comes back with a flipped byte (fsio.FaultFS bit-rot), so it
// must be a counted error that drops the key; it is never a result under
// another key, and a key never replayed is a miss. One Put after the open
// must replay at the next. The committed corpus holds a good record, a
// record whose result is null, and a payload that is not JSON between two
// good ones, each read back clean and rotted.
func FuzzResultCacheLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte, rot bool) {
		var payloads [][]byte
		for _, p := range bytes.Split(in, []byte("\n")) {
			if len(p) > 0 {
				payloads = append(payloads, p)
			}
		}
		path := filepath.Join(t.TempDir(), "results.cache")
		writeFrames(t, path, resultsMagic, resultsSchema, payloads...)
		want := make(map[CellKey]*sim.Result)
		replayed := 0
		for _, p := range payloads {
			var e cacheEntry
			if json.Unmarshal(p, &e) != nil || e.Result == nil {
				break
			}
			want[e.Key] = e.Result
			replayed++
		}

		ffs := &fsio.FaultFS{}
		c := NewResultCacheFS(ffs)
		err := c.Open(path)
		if whole := replayed == len(payloads); (err == nil) != whole || (c.LoadErrors() == 0) != whole {
			t.Fatalf("%d of %d frames replay: open error %v, %d load errors", replayed, len(payloads), err, c.LoadErrors())
		}
		if c.Len() != len(want) || c.Resident() != 0 {
			t.Fatalf("cache holds %d entries, %d resident, want %d/0", c.Len(), c.Resident(), len(want))
		}
		for k, r := range want {
			if got, ok := c.Get(k); !ok || got != summarize(r) {
				t.Fatalf("%+v replayed as %+v, want %+v", k, got, summarize(r))
			}
		}
		loadErrs := c.LoadErrors()
		ffs.BitRot(rot)
		for k, r := range want {
			got, err := c.Load(k)
			switch {
			case rot && (err == nil || got != nil):
				t.Fatalf("%+v loaded from a rotten read as %+v, %v", k, got, err)
			case !rot && (err != nil || !reflect.DeepEqual(got, r)):
				t.Fatalf("%+v loaded as %+v, %v, want %+v", k, got, err, r)
			}
		}
		ffs.BitRot(false)
		if rot && (c.Len() != 0 || c.LoadErrors() != loadErrs+uint64(len(want))) {
			t.Fatalf("after %d rotten reads: %d entries, %d load errors (was %d)", len(want), c.Len(), c.LoadErrors(), loadErrs)
		}
		put := CellKey{Config: "fuzz-put"}
		for want[put] != nil {
			put.WorkloadHash++
		}
		if _, err := c.Load(put); !errors.Is(err, errNotCached) {
			t.Fatalf("a key never stored loaded with error %v, want a miss", err)
		}
		c.Put(put, &sim.Result{Cycles: 1})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c2 := NewResultCacheFS(nil)
		defer c2.Close()
		if err := c2.Open(path); err != nil || c2.Len() != len(want)+1 {
			t.Fatalf("reopen after one Put: %d entries (want %d), error %v", c2.Len(), len(want)+1, err)
		}
	})
}

// TestResultLogRoundTrip: every result the daemon serves is read back from
// the results log, so each must survive the record's JSON exactly. Every
// quick-matrix cell, and every sampled GAP base and phelps cell, comes back
// from Put and Load deep-equal to the run that produced it.
func TestResultLogRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick matrix is skipped in -short mode")
	}
	t.Parallel()
	gap := []string{sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgPhelpsNoStore, sim.CfgBR, sim.CfgBR12w, sim.CfgHalf}
	runs := []struct {
		specs   []sim.Spec
		configs []string
		sample  *sim.SampleConfig
	}{
		{sim.GapSpecs(true), gap, nil},
		{sim.SpecCPUSpecs(true), []string{sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgBR, sim.CfgBR12w, sim.CfgHalf}, nil},
		{sim.GapSpecs(true), []string{sim.CfgBase, sim.CfgPhelps}, &sim.SampleConfig{}},
	}
	c := openLog(t, nil, filepath.Join(t.TempDir(), "results.cache"))
	cells := 0
	for _, run := range runs {
		m, err := sim.RunMatrixOpt(run.specs, run.configs, sim.MatrixOptions{CrashDir: t.TempDir(), Sample: run.sample})
		if err != nil {
			t.Fatalf("matrix: %v", err)
		}
		for w, row := range m {
			for cfg, res := range row {
				key := CellKey{WorkloadHash: uint64(cells), Config: cfg, Sampled: run.sample != nil}
				want := res
				c.Put(key, &res)
				got, err := c.Load(key)
				if err != nil || !reflect.DeepEqual(got, &want) {
					t.Errorf("%s/%s (sampled %v) did not round-trip: %v", w, cfg, key.Sampled, err)
				}
				cells++
			}
		}
	}
	if cells != 116+16 || c.Resident() != 0 {
		t.Errorf("round-tripped %d cells with %d resident, want %d and none", cells, c.Resident(), 116+16)
	}
}
