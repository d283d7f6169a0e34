package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEverything pushes many tasks through a small pool from several
// submitters at once and requires every one to execute exactly once,
// including tasks submitted while the pool is busy; Close must drain the
// backlog before returning.
func TestPoolRunsEverything(t *testing.T) {
	t.Parallel()
	p := NewPool(4)
	const submitters, each = 4, 125
	const n = submitters * each
	var ran atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(n)
	for s := 0; s < submitters; s++ {
		go func() {
			for i := 0; i < each; i++ {
				if err := p.Submit(func() { ran.Add(1); wg.Done() }); err != nil {
					t.Error(err)
					wg.Done()
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
	if got := p.Executed(); got != n {
		t.Fatalf("Executed() = %d, want %d", got, n)
	}
	if p.Submit(func() {}) == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

// TestPoolCloseDrains submits a backlog bigger than the pool and closes
// immediately: Close must not return until the backlog has run.
func TestPoolCloseDrains(t *testing.T) {
	t.Parallel()
	p := NewPool(2)
	const n = 64
	var ran atomic.Uint64
	for i := 0; i < n; i++ {
		if err := p.Submit(func() { time.Sleep(100 * time.Microsecond); ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("Close returned with %d/%d tasks run", got, n)
	}
}

// TestPoolStartsInSubmitOrder parks one of two workers and requires the
// other to start the remaining tasks in exactly the order they were
// submitted — across separate Submit calls too. (A work-stealing deque
// fails this: a thief takes the newest task first.)
func TestPoolStartsInSubmitOrder(t *testing.T) {
	t.Parallel()
	p := NewPool(2)
	gate, parked := make(chan struct{}), make(chan struct{})
	if err := p.Submit(func() { close(parked); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-parked
	var mu sync.Mutex
	var order []int
	const n = 32
	for i := 0; i < n; i++ {
		if err := p.Submit(func() { mu.Lock(); order = append(order, i); mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Executed() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d tasks ran with one worker parked", p.Executed(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("start order %v, want 0..%d in order", order, n-1)
		}
	}
}

// TestForEachIndexAddressed: every index runs exactly once and lands in its
// own slot, for serial, exact-fit and oversubscribed worker counts.
func TestForEachIndexAddressed(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 100} {
		const n = 50
		out := make([]int, n)
		ForEach(n, workers, func(i int) { out[i] += i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	ForEach(0, 4, func(int) { t.Error("fn called for n=0") })
}
