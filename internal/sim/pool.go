package sim

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by Pool.Submit once Close has begun.
var ErrPoolClosed = errors.New("sim: pool closed")

// Pool is the simulator's one cell executor: a fixed set of workers draining
// a single FIFO queue of tasks, so tasks start in submit order. Every
// "run N cells on W workers" path goes through it — the run matrix, SimPoint
// measurement, the explore grid and the figure cell lists via ForEach, and
// phelpsd's daemon-wide pool directly.
//
// Tasks are plain closures: cancellation, panic containment and result
// delivery are the closure's business (RunConfigCellCtx and
// measurePointSafe contain panics; phelpsd wires results through its
// flights), which keeps the pool small enough to reason about under -race.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	closed  bool
	workers int

	wg       sync.WaitGroup
	executed atomic.Uint64
}

// NewPool starts a pool of workers goroutines (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Queued returns the number of submitted tasks not yet picked up.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Executed counts tasks that have run to completion.
func (p *Pool) Executed() uint64 { return p.executed.Load() }

// Submit appends tasks to the queue, behind everything already queued.
func (p *Pool) Submit(tasks ...func()) error {
	if len(tasks) == 0 {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.queue = append(p.queue, tasks...)
	p.mu.Unlock()
	p.cond.Broadcast()
	return nil
}

func (p *Pool) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()
		t()
		p.executed.Add(1)
	}
}

// Close drains the pool: every already-submitted task still runs (callers
// that are in a hurry cancel the tasks' contexts first, making them return
// quickly), new Submits fail, and Close returns once all workers have
// exited.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// ForEach calls fn(i) for every i in [0, n) on a pool of at most workers
// workers and returns once every call has returned; workers <= 1 runs the
// calls in order on the calling goroutine. Calls start in index order, and
// fn delivers its result into slot i of a caller-owned slice, so output
// order never depends on scheduling.
func ForEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := NewPool(workers)
	tasks := make([]func(), n)
	for i := range tasks {
		tasks[i] = func() { fn(i) }
	}
	_ = p.Submit(tasks...) // cannot fail: the pool is not closed yet
	p.Close()
}
