package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"phelps/internal/prog"
)

// A run under an already-canceled context must not simulate at all.
func TestRunCtxPreCanceled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, prog.DelinquentLoop(50000, 50, 1), DefaultConfig())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res.Cycles != 0 {
		t.Fatalf("pre-canceled run simulated %d cycles", res.Cycles)
	}
}

// Cancellation mid-run must stop the machine promptly with ErrCanceled
// carrying the cause.
func TestRunCtxCancelMidRun(t *testing.T) {
	t.Parallel()
	cancelMidRun(t, DefaultConfig())
}

// The cancellation poll shares the watchdog's every-1024-cycles slot but not
// its switch: a run with the watchdog off must still stop when canceled.
func TestRunCtxCancelWithoutWatchdog(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.StallCycles = NoStallWatchdog
	cancelMidRun(t, cfg)
}

func cancelMidRun(t *testing.T, cfg Config) {
	t.Helper()
	cause := errors.New("client hung up")
	ctx, cancel := context.WithCancelCause(context.Background())
	type out struct {
		res Result
		err error
	}
	// Build outside the goroutine so the sleep below lands inside the cycle
	// loop, not inside workload construction.
	w := prog.DelinquentChase(1<<20, 150_000, 50, 1)
	done := make(chan out, 1)
	go func() {
		// The full-size chase workload runs for seconds; cancellation should
		// cut that to milliseconds.
		res, err := RunCtx(ctx, w, cfg)
		done <- out{res, err}
	}()
	time.Sleep(30 * time.Millisecond)
	cancel(cause)
	start := time.Now()
	select {
	case o := <-done:
		if !errors.Is(o.err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", o.err)
		}
		if !strings.Contains(o.err.Error(), cause.Error()) {
			t.Errorf("err %q does not carry the cause %q", o.err, cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop within 5s of cancellation")
	}
	if lag := time.Since(start); lag > 2*time.Second {
		t.Errorf("cancellation latency %v", lag)
	}
}

// The sampled pipeline spends most of its time in functional fast-forward;
// cancellation must interrupt that phase too. The workload is sized so the
// profile pass alone takes far longer than the cancel delay — real suite
// workloads finish in milliseconds on a fast host, turning the race into a
// flake.
func TestSampledRunCtxCanceled(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "long",
		Build: func() *prog.Workload { return prog.PredictableLoop(20_000_000) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SampledRunCtx(ctx, spec, mustConfig(CfgBase, spec.Epoch), SampleConfig{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sampled run did not stop within 10s of cancellation")
	}
}

// A canceled matrix sweep reports ErrCanceled but still returns the cells it
// finished; cells never started are skipped, not run.
func TestRunMatrixCtxCanceled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := RunMatrixCtx(ctx, GapSpecs(true)[:2], []string{CfgBase}, MatrixOptions{CrashDir: t.TempDir()})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	for name, row := range m {
		for cfg, r := range row {
			if r.Cycles != 0 {
				t.Errorf("pre-canceled matrix ran %s/%s (%d cycles)", name, cfg, r.Cycles)
			}
		}
	}
}
