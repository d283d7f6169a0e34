package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"phelps/internal/sim"
)

// RetryPolicy bounds how the daemon re-executes failing cells. Transient
// failures (sim.IsTransient: stalls and recovered panics) are retried up to
// MaxRetries times with capped exponential backoff (backoffFor);
// deterministic failures (livelock, verification, oracle divergence,
// cancellation) fail fast. CellDeadline, when set, bounds each attempt via
// the context threaded through sim.RunCellCtx; a deadline hit is treated as
// permanent (a deterministic simulation that ran out of time once will run
// out of time every time).
type RetryPolicy struct {
	// MaxRetries is the number of re-executions after the first attempt for
	// transient failures (0 = default 2; negative = no retries).
	MaxRetries int
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
	return p
}

// The sleep before the first retry doubles per retry, capped at maxBackoff.
const (
	firstBackoff = 50 * time.Millisecond
	maxBackoff   = 2 * time.Second
)

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
func (s *Server) runWithRetry(ctx context.Context, spec sim.Spec, cfgName string, req JobRequest,
	onAttempt func(attempt int)) (sim.Result, error, attemptOutcome) {

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
		res, err := s.execCell(actx, spec, cfgName, req, attempt)
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
		if !sleepCtx(ctx, backoffFor(attempt)) {
			return res, fmt.Errorf("%w: %v", sim.ErrCanceled, context.Cause(ctx)), out
		}
	}
}

// backoffFor computes the capped exponential backoff before retry n
// (n = the attempt that just failed, starting at 1).
func backoffFor(n int) time.Duration {
	d := firstBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// sleepCtx sleeps for d, reporting false if ctx was canceled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
