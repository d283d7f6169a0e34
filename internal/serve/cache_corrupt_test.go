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
// frame, also when Puts from several goroutines race Sync.
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
	if got, ok := openLog(t, nil, path).Get(key); !ok || got.Cycles != res.Cycles {
		t.Fatalf("a second cache on the log did not see the Put: %v, %v", got, ok)
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
				c.Put(testEntry(1 + w*perWriter + i))
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
	if c.Saves() != total || c.SaveErrors() != 0 {
		t.Errorf("saves=%d save_errors=%d, want %d/0", c.Saves(), c.SaveErrors(), total)
	}
	c2 := openLog(t, nil, path)
	if c2.Len() != total || c2.LoadErrors() != 0 {
		t.Fatalf("reopen: %d entries, %d load errors, want %d/0", c2.Len(), c2.LoadErrors(), total)
	}
	for i := 0; i < total; i++ {
		key, res := testEntry(i)
		if got, ok := c2.Get(key); !ok || !reflect.DeepEqual(got, res) {
			t.Errorf("entry %d replayed as %+v, %v", i, got, ok)
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
// append is counted and its entry still served from memory, a torn append
// loses only its own record at the next open, and a healed disk appends
// again. A log that cannot be created at open leaves a memory-only cache.
func TestResultCacheSaveFaults(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "results.cache")
	ffs := &fsio.FaultFS{}
	c := NewResultCacheFS(ffs)
	if err := c.Open(path); err != nil {
		t.Fatal(err)
	}
	c.Put(testEntry(0))

	ffs.FailWrites(fsio.ErrNoSpace)
	key1, res1 := testEntry(1)
	c.Put(key1, res1)
	if c.SaveErrors() != 1 {
		t.Errorf("save_errors = %d after an ENOSPC append, want 1", c.SaveErrors())
	}
	if _, ok := c.Get(key1); !ok {
		t.Error("an entry whose append failed is not served")
	}
	ffs.FailWrites(nil)

	ffs.TornWrites(true)
	c.Put(testEntry(2))
	ffs.TornWrites(false)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Saves() != 2 || c.SaveErrors() != 1 {
		t.Errorf("saves=%d save_errors=%d, want 2/1 (a torn write reports success)", c.Saves(), c.SaveErrors())
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
	if c3 := openLog(t, ffs, path); c3.Len() != 2 {
		t.Errorf("healed disk: %d entries replayed, want 2", c3.Len())
	}

	ffs.FailWrites(fsio.ErrNoSpace)
	c4 := NewResultCacheFS(ffs)
	if err := c4.Open(filepath.Join(dir, "new.cache")); !errors.Is(err, fsio.ErrNoSpace) {
		t.Errorf("creating a log on a full disk: %v, want ENOSPC", err)
	}
	ffs.FailWrites(nil)
	key4, res4 := testEntry(4)
	c4.Put(key4, res4)
	if _, ok := c4.Get(key4); !ok || c4.SaveErrors() != 1 || c4.LoadErrors() != 0 {
		t.Errorf("memory-only cache: served %v, save_errors=%d load_errors=%d, want true/1/0",
			ok, c4.SaveErrors(), c4.LoadErrors())
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
// exactly when a frame did not replay. One Put after the open must replay at
// the next. The committed corpus holds a good record, a record whose result
// is null, and a payload that is not JSON between two good ones.
func FuzzResultCacheLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
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

		c := NewResultCacheFS(nil)
		err := c.Open(path)
		if whole := replayed == len(payloads); (err == nil) != whole || (c.LoadErrors() == 0) != whole {
			t.Fatalf("%d of %d frames replay: open error %v, %d load errors", replayed, len(payloads), err, c.LoadErrors())
		}
		if c.Len() != len(want) {
			t.Fatalf("cache holds %d entries, want %d", c.Len(), len(want))
		}
		for k, r := range want {
			if got, ok := c.Get(k); !ok || !reflect.DeepEqual(got, r) {
				t.Fatalf("%+v replayed as %+v, want %+v", k, got, r)
			}
		}
		put := CellKey{Config: "fuzz-put"}
		for want[put] != nil {
			put.WorkloadHash++
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
