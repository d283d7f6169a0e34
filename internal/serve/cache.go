package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"phelps/internal/codec"
	"phelps/internal/fsio"
	"phelps/internal/sim"
)

// CellKey identifies one cacheable cell execution: the workload's content
// hash (not its name — renaming or redefining a workload changes the key),
// the registered configuration name, the sampling seed, and the sample mode.
// Verification knobs ride in Flags: they don't change the metrics, but
// keeping them in the key keeps a checked run from masquerading as an
// unchecked one (and vice versa).
type CellKey struct {
	WorkloadHash uint64 `json:"workload_hash"`
	Config       string `json:"config"`
	Seed         uint64 `json:"seed,omitempty"`
	Sampled      bool   `json:"sampled,omitempty"`
	Flags        string `json:"flags,omitempty"`
}

const (
	// resultsMagic identifies results logs ("PRC1").
	resultsMagic uint32 = 0x50524331
	// resultsSchema versions the record layout; a mismatched file is
	// replaced by an empty log (results are always recomputable).
	resultsSchema uint32 = 1
)

// Summary is what the cache keeps in memory of a result: enough to resolve a
// cell, answer its status and build its /v1/report row without reading the
// results log.
type Summary struct {
	Cycles, Retired, Mispredicts uint64
}

func summarize(r *sim.Result) Summary {
	return Summary{Cycles: r.Cycles, Retired: r.Retired, Mispredicts: r.Mispredicts}
}

// IPC and MPKI are sim.Result's, over the summary's counts.
func (s Summary) IPC() float64 {
	return (&sim.Result{Cycles: s.Cycles, Retired: s.Retired}).IPC()
}
func (s Summary) MPKI() float64 {
	return (&sim.Result{Retired: s.Retired, Mispredicts: s.Mispredicts}).MPKI()
}

// cacheIndex is one key's entry: where its record lies in the results log,
// and its summary. A record the log does not hold (an append that failed or
// did not read back, or a cache without a log) keeps its result in res.
type cacheIndex struct {
	off  int64
	size int
	sum  Summary
	res  *sim.Result
}

// ResultCache is the daemon's completed-cell store: key -> verified
// sim.Result. Opened on a file, it is an in-memory index over a results log,
// the journal's frames under a PRC1 header, one appended per Put: the index
// keeps each record's offset and summary, and Load reads a full result back
// from the log only when a client asks for it. A record the log does not
// hold stays resident in memory, the one fallback. Safe for concurrent use.
type ResultCache struct {
	fs       fsio.FS
	mu       sync.Mutex
	index    map[CellKey]cacheIndex
	resident int // entries whose result is held in memory

	logMu sync.Mutex
	log   fsio.File // nil without a log, after Close, or if Open failed to open it
	size  int64     // bytes appended to log so far: the next frame's offset

	hits, misses              atomic.Uint64
	loadErrs, saves, saveErrs atomic.Uint64
}

// NewResultCacheFS returns an empty in-memory cache whose log, once Open
// names one, is written through fs — the disk-fault injection seam shared
// with the journal and the checkpoint cache (nil = the real filesystem).
func NewResultCacheFS(fs fsio.FS) *ResultCache {
	if fs == nil {
		fs = fsio.OS
	}
	return &ResultCache{fs: fs, index: make(map[CellKey]cacheIndex)}
}

// Get returns the summary of the cached result for key, counting the hit or
// miss. It reads nothing from the log.
func (c *ResultCache) Get(key CellKey) (Summary, bool) {
	c.mu.Lock()
	e, ok := c.index[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e.sum, ok
}

// Peek is Get without touching the hit/miss counters (admission control
// peeks to size a job's cold footprint without skewing the stats).
func (c *ResultCache) Peek(key CellKey) bool {
	c.mu.Lock()
	_, ok := c.index[key]
	c.mu.Unlock()
	return ok
}

// Put stores a completed cell and returns its summary. It appends the
// cell's record to the log in one Write and reads it back before it
// returns; the index then keeps only the record's offset, and the result
// can be dropped. A failed append, or one that does not read back as
// written (a torn write), is counted (SaveErrors) and its result stays
// resident in memory. The caller must not mutate res afterwards.
func (c *ResultCache) Put(key CellKey, res *sim.Result) Summary {
	e := cacheIndex{sum: summarize(res), res: res}
	frame := appendFrame(nil, &cacheEntry{Key: key, Result: res})

	c.logMu.Lock()
	if c.log != nil {
		if off, ok := c.appendLocked(frame); ok {
			e.off, e.size, e.res = off, len(frame), nil
			c.saves.Add(1)
		} else {
			c.saveErrs.Add(1)
		}
	}
	c.logMu.Unlock()

	c.mu.Lock()
	c.setLocked(key, e)
	c.mu.Unlock()
	return e.sum
}

// appendLocked writes frame at the end of the log and reads it back,
// returning its offset and whether the log now holds it. Called with
// c.logMu held.
func (c *ResultCache) appendLocked(frame []byte) (int64, bool) {
	if len(frame) == 0 {
		return 0, false // the result did not marshal
	}
	off := c.size
	n, err := c.log.Write(frame)
	c.size += int64(n)
	if err != nil {
		return 0, false
	}
	back := make([]byte, len(frame))
	if _, err := c.log.ReadAt(back, off); err != nil || !bytes.Equal(back, frame) {
		return 0, false
	}
	return off, true
}

// setLocked installs key's entry, keeping the resident count. Called with
// c.mu held.
func (c *ResultCache) setLocked(key CellKey, e cacheIndex) {
	if old, ok := c.index[key]; ok && old.res != nil {
		c.resident--
	}
	if e.res != nil {
		c.resident++
	}
	c.index[key] = e
}

var (
	// errNotCached is Load's miss.
	errNotCached = errors.New("serve: no cached result")
	// errLogClosed is Load of a logged record after Close.
	errLogClosed = errors.New("serve: results log is closed")
)

// Load returns key's full result: its resident copy, or its record read back
// from the log, checked against its seal and its key and decoded. A record
// that fails either check is one counted load error, and its key leaves the
// index, so the cell runs cold the next time it is submitted; a wrong result
// is never returned. A key the cache does not hold is errNotCached. The
// returned result is shared and must not be mutated.
func (c *ResultCache) Load(key CellKey) (*sim.Result, error) {
	c.mu.Lock()
	e, ok := c.index[key]
	c.mu.Unlock()
	if !ok {
		return nil, errNotCached
	}
	if e.res != nil {
		return e.res, nil
	}
	res, err := c.readRecord(key, e)
	if errors.Is(err, errLogClosed) {
		return nil, err
	}
	if err != nil {
		c.loadErrs.Add(1)
		c.mu.Lock()
		if cur, ok := c.index[key]; ok && cur.off == e.off {
			delete(c.index, key)
		}
		c.mu.Unlock()
		return nil, fmt.Errorf("serve: results log record at offset %d: %w", e.off, err)
	}
	return res, nil
}

// readRecord reads e's frame from the log and decodes the result it holds
// for key.
func (c *ResultCache) readRecord(key CellKey, e cacheIndex) (*sim.Result, error) {
	frame := make([]byte, e.size)
	c.logMu.Lock()
	err := errLogClosed
	if c.log != nil {
		_, err = c.log.ReadAt(frame, e.off)
	}
	c.logMu.Unlock()
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(frame)
	payload, err := nextFrame(r)
	if err == nil && r.Len() > 0 {
		err = codec.ErrShort
	}
	if err != nil {
		return nil, err
	}
	var rec cacheEntry
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	if rec.Key != key || rec.Result == nil {
		return nil, errors.New("record does not hold the key's result")
	}
	return rec.Result, nil
}

// Len returns the number of cached cells.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Resident returns the number of cached cells whose result is held in
// memory rather than in the log: every cell of a cache without a log, none
// of a healthy one.
func (c *ResultCache) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// Hits and Misses expose the counters for the obs registry.
func (c *ResultCache) Hits() uint64   { return c.hits.Load() }
func (c *ResultCache) Misses() uint64 { return c.misses.Load() }

// LoadErrors counts damaged, foreign, schema-skewed or unreadable results
// logs found at Open, and records that failed their checks on Load; Saves
// counts appended records, and SaveErrors failed appends, syncs and repairs.
func (c *ResultCache) LoadErrors() uint64 { return c.loadErrs.Load() }
func (c *ResultCache) Saves() uint64      { return c.saves.Load() }
func (c *ResultCache) SaveErrors() uint64 { return c.saveErrs.Load() }

// cacheEntry is one record's JSON payload.
type cacheEntry struct {
	Key    CellKey     `json:"key"`
	Result *sim.Result `json:"result"`
}

// Open replays the results log at path into the index and appends every
// later Put to it. Each record is decoded once, to check it and take its
// summary; only its offset is kept. A missing or empty file starts a new
// log; a clean one is appended to as it stands. A file that does not replay
// to its end is one counted load error, returned: the records before the
// damage are kept, and the file is rewritten to them (fsio.WriteFileAtomic,
// fsynced) before the first append. If the log cannot be rewritten or
// opened, the replayed records stay resident and the cache serves from
// memory. Open must precede every Put.
func (c *ResultCache) Open(path string) error {
	data, err := c.fs.ReadFile(path)
	if os.IsNotExist(err) {
		err = nil
	}
	// The replayed records are indexed when Open returns: by offset if the
	// log opens for appending, else resident.
	idx := make(map[CellKey]cacheIndex)
	logged := false
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for key, e := range idx {
			if logged {
				e.res = nil
			}
			c.setLocked(key, e)
		}
	}()
	valid := 0
	if err == nil {
		valid, err = readFrames(data, resultsMagic, resultsSchema, func(off int64, payload []byte) error {
			var e cacheEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return err
			}
			if e.Result == nil {
				return errors.New("record has no result")
			}
			idx[e.Key] = cacheIndex{off: off, size: len(payload) + 12, sum: summarize(e.Result), res: e.Result}
			return nil
		})
	}
	if err != nil {
		c.loadErrs.Add(1)
		err = fmt.Errorf("serve: results log %s: %w (kept %d of %d bytes)", path, err, valid, len(data))
	}
	size := int64(len(data))
	if valid == 0 || valid < len(data) {
		prefix := codec.Header(nil, resultsMagic, resultsSchema)
		if valid > 0 {
			prefix = data[:valid]
		}
		if werr := fsio.WriteFileAtomic(c.fs, path, prefix, true); werr != nil {
			c.saveErrs.Add(1)
			return cmp.Or(err, werr)
		}
		size = int64(len(prefix))
	}
	f, oerr := c.fs.OpenAppend(path)
	if oerr != nil {
		c.saveErrs.Add(1)
		return cmp.Or(err, oerr)
	}
	c.logMu.Lock()
	c.log, c.size = f, size
	c.logMu.Unlock()
	logged = true
	return err
}

// Sync flushes the log to stable storage, so every result Put so far
// survives a host crash. A failure is counted (SaveErrors).
func (c *ResultCache) Sync() {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.log != nil && c.log.Sync() != nil {
		c.saveErrs.Add(1)
	}
}

// Close syncs and closes the log; later Puts are kept in memory only, and
// records in the log can no longer be loaded.
func (c *ResultCache) Close() error {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.log == nil {
		return nil
	}
	err := errors.Join(c.log.Sync(), c.log.Close())
	c.log = nil
	if err != nil {
		c.saveErrs.Add(1)
	}
	return err
}
