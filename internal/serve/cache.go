package serve

import (
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

// ResultCache is the daemon's completed-cell store: key -> verified
// sim.Result. Entries are treated as immutable once inserted — readers share
// the stored pointer. Safe for concurrent use. Opened on a file, it keeps a
// results log: the journal's frames under a PRC1 header, one per Put.
type ResultCache struct {
	fs      fsio.FS
	mu      sync.Mutex
	entries map[CellKey]*sim.Result

	logMu sync.Mutex
	log   fsio.File // nil without a log, after Close, or if Open failed to open it

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
	return &ResultCache{fs: fs, entries: make(map[CellKey]*sim.Result)}
}

// Get returns the cached result for key, counting the hit or miss. The
// returned result is shared and must not be mutated.
func (c *ResultCache) Get(key CellKey) (*sim.Result, bool) {
	c.mu.Lock()
	r, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

// Peek is Get without touching the hit/miss counters (admission control
// peeks to size a job's cold footprint without skewing the stats).
func (c *ResultCache) Peek(key CellKey) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	return ok
}

// Put stores a completed cell and appends its record to the log, in one
// Write, before it returns. The caller hands over ownership of res. A failed
// append is counted (SaveErrors) and the entry is still served from memory.
func (c *ResultCache) Put(key CellKey, res *sim.Result) {
	c.mu.Lock()
	c.entries[key] = res
	c.mu.Unlock()

	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.log == nil {
		return
	}
	frame := appendFrame(nil, &cacheEntry{Key: key, Result: res})
	if len(frame) == 0 {
		c.saveErrs.Add(1)
		return
	}
	if _, err := c.log.Write(frame); err != nil {
		c.saveErrs.Add(1)
		return
	}
	c.saves.Add(1)
}

// Len returns the number of cached cells.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits and Misses expose the counters for the obs registry.
func (c *ResultCache) Hits() uint64   { return c.hits.Load() }
func (c *ResultCache) Misses() uint64 { return c.misses.Load() }

// LoadErrors counts damaged, foreign, schema-skewed or unreadable results
// logs found at Open; Saves counts appended records, and SaveErrors failed
// appends, syncs and repairs.
func (c *ResultCache) LoadErrors() uint64 { return c.loadErrs.Load() }
func (c *ResultCache) Saves() uint64      { return c.saves.Load() }
func (c *ResultCache) SaveErrors() uint64 { return c.saveErrs.Load() }

// cacheEntry is one record's JSON payload.
type cacheEntry struct {
	Key    CellKey     `json:"key"`
	Result *sim.Result `json:"result"`
}

// Open replays the results log at path into the cache and appends every
// later Put to it. A missing or empty file starts a new log; a clean one is
// appended to as it stands. A file that does not replay to its end is one
// counted load error, returned: the records before the damage are kept, and
// the file is rewritten to them (fsio.WriteFileAtomic, fsynced) before the
// first append. Every failure leaves the cache serving from memory.
func (c *ResultCache) Open(path string) error {
	data, err := c.fs.ReadFile(path)
	if os.IsNotExist(err) {
		err = nil
	}
	valid := 0
	if err == nil {
		c.mu.Lock()
		valid, err = readFrames(data, resultsMagic, resultsSchema, func(payload []byte) error {
			var e cacheEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return err
			}
			if e.Result == nil {
				return errors.New("record has no result")
			}
			c.entries[e.Key] = e.Result
			return nil
		})
		c.mu.Unlock()
	}
	if err != nil {
		c.loadErrs.Add(1)
		err = fmt.Errorf("serve: results log %s: %w (kept %d of %d bytes)", path, err, valid, len(data))
	}
	if valid == 0 || valid < len(data) {
		prefix := codec.Header(nil, resultsMagic, resultsSchema)
		if valid > 0 {
			prefix = data[:valid]
		}
		if werr := fsio.WriteFileAtomic(c.fs, path, prefix, true); werr != nil {
			c.saveErrs.Add(1)
			return cmp.Or(err, werr)
		}
	}
	f, oerr := c.fs.OpenAppend(path)
	if oerr != nil {
		c.saveErrs.Add(1)
		return cmp.Or(err, oerr)
	}
	c.logMu.Lock()
	c.log = f
	c.logMu.Unlock()
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

// Close syncs and closes the log; later Puts are kept in memory only.
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
