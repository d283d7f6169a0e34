package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"phelps/internal/cpu"
	"phelps/internal/sim"
)

// RetryPolicy bounds how the daemon re-executes failing cells. Transient
// failures (sim.IsTransient: stalls and recovered panics) are retried up to
// MaxRetries times with exponential backoff; deterministic failures
// (livelock, verification, oracle divergence, cancellation) fail fast and
// are journaled as permanent. CellDeadline, when set, bounds each attempt
// via the context threaded through sim.RunCellCtx; a deadline hit is treated
// as permanent (a deterministic simulation that ran out of time once will
// run out of time every time).
type RetryPolicy struct {
	// MaxRetries is the number of re-executions after the first attempt for
	// transient failures (0 = default 2; negative = no retries).
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling per retry
	// (0 = default 50ms).
	Backoff time.Duration
	// MaxBackoff caps the doubled backoff (0 = default 2s).
	MaxBackoff time.Duration
	// CellDeadline bounds one attempt's wall-clock time (0 = unbounded).
	CellDeadline time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 2
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// errCellDeadline is the cancellation cause installed by the per-cell
// deadline, distinguishing it from a job cancel or daemon shutdown.
var errCellDeadline = errors.New("serve: per-cell deadline exceeded")

// attemptOutcome carries one cell execution's retry provenance back to the
// flight: how many attempts ran and what the pre-final ones returned.
type attemptOutcome struct {
	attempts  int
	retryErrs []string
}

// runWithRetry executes one cell under the server's retry/deadline policy.
// onAttempt fires before each execution (attempt numbering starts at 1) so
// the caller can journal the transition and mark subscribed cells running.
// fault, when non-nil, is injected into the first faultTimes attempts only
// (0 = every attempt), which lets containment tests exercise a fault that
// strikes once and then clears — the shape of a true transient.
func (s *Server) runWithRetry(ctx context.Context, spec sim.Spec, cfgName string, req JobRequest,
	fault *cpu.FaultInjection, faultTimes int, onAttempt func(attempt int)) (sim.Result, error, attemptOutcome) {

	p := s.retry
	out := attemptOutcome{}
	for attempt := 1; ; attempt++ {
		out.attempts = attempt
		if onAttempt != nil {
			onAttempt(attempt)
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.CellDeadline > 0 {
			actx, cancel = context.WithTimeoutCause(ctx, p.CellDeadline, errCellDeadline)
		}
		f := fault
		if f != nil && faultTimes > 0 && attempt > faultTimes {
			f = nil
		}
		res, err := s.execCell(actx, spec, cfgName, req, f)
		deadlined := p.CellDeadline > 0 && actx.Err() != nil && ctx.Err() == nil
		cancel()
		if err == nil {
			if attempt > 1 {
				s.retryRecovered.Add(1)
			}
			return res, nil, out
		}
		if deadlined && errors.Is(err, sim.ErrCanceled) {
			// The per-attempt deadline fired while the job itself is still
			// live: a deterministic timeout, not worth re-running.
			s.retryPermanent.Add(1)
			return res, fmt.Errorf("%w after %v (attempt %d)", errCellDeadline, p.CellDeadline, attempt), out
		}
		if !sim.IsTransient(err) {
			s.retryPermanent.Add(1)
			return res, err, out
		}
		s.retryTransient.Add(1)
		if attempt > p.MaxRetries {
			s.retryExhausted.Add(1)
			return res, fmt.Errorf("retry budget exhausted after %d attempts: %w", attempt, err), out
		}
		out.retryErrs = append(out.retryErrs, err.Error())
		s.retryRetried.Add(1)
		if !sleepCtx(ctx, backoffFor(p, attempt)) {
			return res, fmt.Errorf("%w: %v", sim.ErrCanceled, context.Cause(ctx)), out
		}
	}
}

// backoffFor computes the capped exponential backoff before retry n
// (n = the attempt that just failed, starting at 1).
func backoffFor(p RetryPolicy, n int) time.Duration {
	d := p.Backoff
	for i := 1; i < n && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// sleepCtx sleeps for d, reporting false if ctx was canceled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
