// Package fsio is the file-I/O seam shared by every persistence layer in the
// simulator: the phelpsd results log, the sampled-simulation checkpoint
// cache, and the daemon's write-ahead job journal (the logs append through
// OpenAppend; whole files are replaced through WriteFileAtomic). Each store
// promises to degrade gracefully — a torn write, a full disk, or a flipped
// bit must become a counted miss or a counted error, never a crash and never
// a wrong result. That promise is only testable if the disk can be made to
// misbehave on demand, so the stores take an FS instead of calling the os
// package directly, and FaultFS injects the three canonical disk faults:
//
//   - torn writes: a write reports success but only a prefix reaches disk,
//     exactly what a power cut mid-write leaves behind;
//   - ENOSPC: writes and file creation fail outright;
//   - bit-rot: reads succeed but one byte has silently flipped.
//
// Production code always uses OS (the thinnest possible veneer over the os
// package); FaultFS exists for tests and chaos harnesses.
package fsio

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
)

// File is the writable-file surface the stores need: append/stream writes,
// durability, and a name for WriteFileAtomic's temp-file + rename.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS abstracts the handful of filesystem operations the persistence layers
// use. Implementations must be safe for concurrent use.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	Stat(name string) (fs.FileInfo, error)
}

// WriteFileAtomic replaces path with data so that no reader, crash or
// concurrent writer can ever observe a torn file under path: it writes a
// unique temp file in path's directory, fsyncs it when sync is set, and
// renames it into place. The temp file is removed on any failure. It is the
// one way a persisted store replaces a file: journal compaction and the
// results log's repair at open pass sync=true (an acknowledged job and a
// finished result must survive power loss); the checkpoint cache passes
// false (its artifacts are checksummed and recomputable).
func WriteFileAtomic(fs FS, path string, data []byte, sync bool) error {
	tmp, err := fs.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp.Name(), path)
	}
	if err != nil {
		fs.Remove(tmp.Name())
	}
	return err
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// FaultFS wraps an FS and injects disk faults on demand. The zero value with
// Under set behaves exactly like the wrapped FS; faults are armed by the
// setter methods and apply to every subsequent matching operation until
// disarmed. Safe for concurrent use.
type FaultFS struct {
	// Under is the wrapped filesystem (nil = OS).
	Under FS

	mu       sync.Mutex
	writeErr error // non-nil: writes, creates, renames, mkdirs fail with this
	torn     bool  // writes report success but persist only a prefix
	bitRot   bool  // reads flip one byte

	tornWrites, failedOps, rottenReads atomic.Uint64
}

// ErrNoSpace is the canonical injected write failure (ENOSPC).
var ErrNoSpace error = syscall.ENOSPC

func (f *FaultFS) under() FS {
	if f.Under == nil {
		return OS
	}
	return f.Under
}

// FailWrites arms (err != nil) or disarms (err == nil) hard write failures:
// OpenAppend, CreateTemp, Rename, MkdirAll, and File.Write all return err
// while armed.
func (f *FaultFS) FailWrites(err error) {
	f.mu.Lock()
	f.writeErr = err
	f.mu.Unlock()
}

// TornWrites arms or disarms torn writes: while armed, File.Write reports
// full success but persists only the first half of the payload — the
// on-disk shape of a crash mid-write.
func (f *FaultFS) TornWrites(on bool) {
	f.mu.Lock()
	f.torn = on
	f.mu.Unlock()
}

// BitRot arms or disarms read corruption: while armed, every non-empty
// ReadFile result comes back with one byte flipped.
func (f *FaultFS) BitRot(on bool) {
	f.mu.Lock()
	f.bitRot = on
	f.mu.Unlock()
}

// FailedOps counts operations refused by an armed FailWrites.
func (f *FaultFS) FailedOps() uint64 { return f.failedOps.Load() }

// TornOps counts writes that were silently truncated.
func (f *FaultFS) TornOps() uint64 { return f.tornWrites.Load() }

// RottenReads counts reads that came back corrupted.
func (f *FaultFS) RottenReads() uint64 { return f.rottenReads.Load() }

func (f *FaultFS) writeFault() (error, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeErr != nil {
		f.failedOps.Add(1)
		return f.writeErr, false
	}
	return nil, f.torn
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	data, err := f.under().ReadFile(name)
	if err != nil {
		return data, err
	}
	f.mu.Lock()
	rot := f.bitRot
	f.mu.Unlock()
	if rot && len(data) > 0 {
		f.rottenReads.Add(1)
		data[len(data)/2] ^= 0x40
	}
	return data, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if err, _ := f.writeFault(); err != nil {
		return nil, err
	}
	file, err := f.under().OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := f.writeFault(); err != nil {
		return nil, err
	}
	file, err := f.under().CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := f.writeFault(); err != nil {
		return err
	}
	return f.under().Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error { return f.under().Remove(name) }

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := f.writeFault(); err != nil {
		return err
	}
	return f.under().MkdirAll(path, perm)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) { return f.under().Stat(name) }

// faultFile applies the owning FaultFS's write faults to streamed writes.
// A torn stream write persists half the payload but reports len(p), so the
// caller believes the append landed — the torn tail is only discovered on
// the next read, exactly like a real crash.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	err, torn := f.fs.writeFault()
	if err != nil {
		return 0, err
	}
	if torn {
		f.fs.tornWrites.Add(1)
		if _, werr := f.File.Write(p[:len(p)/2]); werr != nil {
			return 0, werr
		}
		return len(p), nil
	}
	return f.File.Write(p)
}
