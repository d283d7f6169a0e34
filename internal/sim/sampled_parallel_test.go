package sim

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"phelps/internal/cpu"
	"phelps/internal/prog"
)

// TestSampledParallelBitIdentical is the acceptance gate for parallel
// SimPoint measurement: on every quick-profile workload, the Result of a
// sampled run must be byte-for-byte identical (every counter, every float,
// every PointResult) for workers = 1, 2, and 8. Each point owns an isolated
// machine and the weighted reconstruction is a serial reduction in interval
// order, so scheduling must not be observable.
func TestSampledParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel bit-identity sweep skipped in -short mode")
	}
	for _, spec := range append(GapSpecs(true), SpecCPUSpecs(true)...) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := mustConfig(CfgBase, spec.Epoch)
			serial := mustSampled(t, spec, cfg, SampleConfig{Workers: 1})
			for _, workers := range []int{2, 8} {
				par := mustSampled(t, spec, cfg, SampleConfig{Workers: workers})
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("workers=%d diverged from serial:\nserial   %+v\nparallel %+v", workers, serial, par)
				}
			}
		})
	}
}

// TestSampledParallelCancel: cancellation at any phase — checkpoint-cache
// I/O, functional fast-forward, or between/inside parallel point
// measurements — surfaces as ErrCanceled, and the call returns promptly
// (measureAll waits out every started worker, so a return proves no leaks).
func TestSampledParallelCancel(t *testing.T) {
	t.Parallel()
	// Sized so the functional passes take far longer than the largest cancel
	// delay (see TestSampledRunCtxCanceled).
	spec := Spec{
		Name:  "long",
		Build: func() *prog.Workload { return prog.PredictableLoop(20_000_000) },
	}
	sc := SampleConfig{Workers: 8, Ckpts: NewCkptCache(t.TempDir()), crashDir: t.TempDir()}
	for _, delay := range []time.Duration{0, 5 * time.Millisecond, 50 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, rerr := SampledRunCtx(ctx, spec, DefaultConfig(), sc)
			done <- rerr
		}()
		time.Sleep(delay)
		cancel()
		select {
		case rerr := <-done:
			if !errors.Is(rerr, ErrCanceled) {
				t.Fatalf("delay %v: err = %v, want ErrCanceled", delay, rerr)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("delay %v: sampled run did not stop within 10s of cancellation", delay)
		}
	}
}

// TestSampledParallelPanicContainment: a panic inside one point's
// measurement worker is contained into an ErrPanic error naming the SimPoint
// interval, with a crash dump on disk — it must not kill the process (a bare
// panic on a pool goroutine would) and must not wedge sibling workers (the
// run returns).
func TestSampledParallelPanicContainment(t *testing.T) {
	spec := Spec{
		Name:  "dl",
		Build: func() *prog.Workload { return prog.DelinquentLoop(30_000, 50, 1) },
	}
	cfg := DefaultConfig()
	// Learn the deterministic point layout, then aim a retirement-time panic
	// into the last point's measured window: exactly one worker trips it.
	clean := mustSampled(t, spec, cfg, SampleConfig{Workers: 8})
	pts := clean.Sampled.Points
	last := pts[len(pts)-1]
	if last.Interval == 0 {
		t.Fatalf("expected a non-cold last point, got %+v", last)
	}
	crashDir := t.TempDir()
	cfg.Faults = &cpu.FaultInjection{PanicAtSeq: last.StartInst + 100}
	_, err := SampledRun(spec, cfg, SampleConfig{Workers: 8, crashDir: crashDir})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("injected panic not contained: %v", err)
	}
	want := "SimPoint interval"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error does not name the panicking interval: %v", err)
	}
	files, derr := os.ReadDir(crashDir)
	if derr != nil || len(files) == 0 {
		t.Fatalf("no crash dump written (err=%v)", derr)
	}
	// The faulted seq lands in exactly one measured window, so the error
	// names that interval specifically.
	if !strings.Contains(err.Error(), "interval "+strconv.Itoa(last.Interval)) {
		t.Errorf("error should name interval %d: %v", last.Interval, err)
	}
}
