package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	if err := WriteFileAtomic(OS, path, []byte("hello"), true); err != nil {
		t.Fatal(err)
	}
	got, err := OS.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	f, err := OS.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = OS.ReadFile(path)
	if string(got) != "hello world" {
		t.Fatalf("after append: %q", got)
	}
}

func TestFaultFSFailWrites(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	path := filepath.Join(dir, "a")
	f, err := ffs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ffs.FailWrites(ErrNoSpace)

	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("File.Write err = %v, want ENOSPC", err)
	}
	if _, err := ffs.OpenAppend(path); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("OpenAppend err = %v, want ENOSPC", err)
	}
	if _, err := ffs.CreateTemp(dir, "t*"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("CreateTemp err = %v, want ENOSPC", err)
	}
	if err := ffs.Rename(path, path+".moved"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Rename err = %v, want ENOSPC", err)
	}
	if err := ffs.MkdirAll(filepath.Join(dir, "sub"), 0o755); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("MkdirAll err = %v, want ENOSPC", err)
	}
	if got := ffs.FailedOps(); got != 5 {
		t.Errorf("FailedOps = %d, want 5", got)
	}

	// Disarm: everything works again.
	ffs.FailWrites(nil)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("append after disarm: %v", err)
	}
	if err := WriteFileAtomic(ffs, path, []byte("y"), true); err != nil {
		t.Fatalf("atomic write after disarm: %v", err)
	}
}

func TestFaultFSTornWrites(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	ffs.TornWrites(true)

	// An atomic write's temp file tears like any stream write: the rename
	// lands a half file, which is why stores seal what they write.
	path := filepath.Join(dir, "a")
	if err := WriteFileAtomic(ffs, path, []byte("0123456789"), true); err != nil {
		t.Fatalf("torn WriteFileAtomic should report success, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "01234" {
		t.Fatalf("torn WriteFileAtomic persisted %q, want half", got)
	}

	// Streamed appends tear the same way while reporting full length.
	f, err := ffs.OpenAppend(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh"))
	if err != nil || n != 8 {
		t.Fatalf("torn append = %d, %v, want 8, nil", n, err)
	}
	f.Close()
	got, _ = os.ReadFile(filepath.Join(dir, "b"))
	if string(got) != "abcd" {
		t.Fatalf("torn append persisted %q, want half", got)
	}
	if ffs.TornOps() != 2 {
		t.Errorf("TornOps = %d, want 2", ffs.TornOps())
	}
}

func TestFaultFSBitRot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := &FaultFS{}
	ffs.BitRot(true)
	got, err := ffs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "0123456789" {
		t.Fatal("bit-rot read came back clean")
	}
	if ffs.RottenReads() != 1 {
		t.Errorf("RottenReads = %d, want 1", ffs.RottenReads())
	}
	// A read at an offset through an open file rots the same way.
	f, err := ffs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 2); n != 4 || err != nil || string(buf) == "2345" {
		t.Fatalf("rotten ReadAt = %q, %d, %v", buf, n, err)
	}
	if ffs.RottenReads() != 2 {
		t.Errorf("RottenReads = %d, want 2", ffs.RottenReads())
	}
	// The file itself is untouched; only the reads were corrupted.
	ffs.BitRot(false)
	got, _ = ffs.ReadFile(path)
	if string(got) != "0123456789" {
		t.Fatalf("disk was mutated: %q", got)
	}
	if _, err := f.ReadAt(buf, 2); err != nil || string(buf) != "2345" {
		t.Fatalf("clean ReadAt = %q, %v", buf, err)
	}
}

// TestFaultFSConcurrent arms and disarms faults while readers and writers
// hammer the FS; run under -race.
func TestFaultFSConcurrent(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := filepath.Join(dir, "f")
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = WriteFileAtomic(ffs, path, []byte("data"), false)
				if f, err := ffs.OpenAppend(path); err == nil {
					_, _ = f.Write([]byte("more"))
					f.Close()
				}
				_, _ = ffs.ReadFile(path)
			}
		}(i)
	}
	for i := 0; i < 100; i++ {
		ffs.TornWrites(i%2 == 0)
		ffs.BitRot(i%3 == 0)
		if i%5 == 0 {
			ffs.FailWrites(ErrNoSpace)
		} else {
			ffs.FailWrites(nil)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWriteFileAtomic: a write replaces the target whole, and a failure at
// any step leaves the old target intact and no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, sync := range []bool{false, true} {
		if err := WriteFileAtomic(OS, path, []byte("v1"), sync); err != nil {
			t.Fatal(err)
		}
	}
	temps := func() []string {
		m, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
		return m
	}

	// Rename onto a non-empty directory fails after the temp file exists.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(OS, blocked, []byte("v2"), true); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	// A refused temp-file create must not touch the target.
	ffs := &FaultFS{}
	ffs.FailWrites(ErrNoSpace)
	if err := WriteFileAtomic(ffs, path, []byte("v3"), true); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("target = %q after failed writes, want v1", got)
	}
	if m := temps(); len(m) != 0 {
		t.Fatalf("temp files left behind: %v", m)
	}
}
