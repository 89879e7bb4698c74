package pageio

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startedWorkers reads how many worker goroutines Go has ever started.
func startedWorkers() int64 {
	workers.mu.Lock()
	defer workers.mu.Unlock()
	return workers.started
}

// waitWorkers polls cond (called with workers.mu held) until it holds or
// the deadline passes.
func waitWorkers(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		workers.mu.Lock()
		ok := cond()
		workers.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGoReusesParkedWorker: a task started after an earlier one finished
// runs on the worker the earlier one parked, not on a new goroutine.
func TestGoReusesParkedWorker(t *testing.T) {
	done := make(chan struct{})
	Go(func() { close(done) })
	<-done
	waitWorkers(t, time.Second, "first worker parks", func() bool { return len(workers.idle) > 0 })
	before := startedWorkers()
	done = make(chan struct{})
	Go(func() { close(done) })
	<-done
	if got := startedWorkers(); got != before {
		t.Fatalf("second task started %d new workers, want 0 (one was parked)", got-before)
	}
}

// TestGoWorkersRetire: once the last task has ended, the parked workers and
// the sweeper exit, and the goroutine count is back to its base within a
// second.
func TestGoWorkersRetire(t *testing.T) {
	waitWorkers(t, 2*time.Second, "earlier tests' workers retire",
		func() bool { return len(workers.idle) == 0 && !workers.sweeping })
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	var ran sync.WaitGroup
	ran.Add(8)
	for i := 0; i < 8; i++ {
		Go(func() {
			<-release
			ran.Done()
		})
	}
	close(release)
	ran.Wait()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after the last task, %d before the tasks", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGoConcurrentCallers: 1,000 Go calls from ten goroutines at once all
// return while every task they started is still blocked — Go never waits
// for a worker — and then every task runs. The race job runs it too.
func TestGoConcurrentCallers(t *testing.T) {
	const callers, each = 10, 100
	release := make(chan struct{})
	var ran atomic.Int64
	var finished, returned sync.WaitGroup
	finished.Add(callers * each)
	returned.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer returned.Done()
			for i := 0; i < each; i++ {
				Go(func() {
					<-release
					ran.Add(1)
					finished.Done()
				})
			}
		}()
	}
	calls := make(chan struct{})
	go func() {
		returned.Wait()
		close(calls)
	}()
	select {
	case <-calls:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a Go call blocked while its tasks could not finish")
	}
	close(release)
	finished.Wait()
	if got := ran.Load(); got != callers*each {
		t.Fatalf("%d tasks ran, want %d", got, callers*each)
	}
}

// deep recurses through n frames of a little over 256 bytes each, so a task
// that calls deep(64) needs ≈16 KiB of stack: a fresh goroutine grows its
// stack several times to run it, a reused worker already has it.
//
//go:noinline
func deep(n int) byte {
	var pad [256]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		return pad[0]
	}
	return deep(n-1) + pad[n%len(pad)]
}

var deepSink atomic.Int64

// BenchmarkGo compares a plain go statement with pageio.Go on a
// read-ahead-shaped load: eight tasks that each need ≈16 KiB of stack,
// started together and waited for.
func BenchmarkGo(b *testing.B) {
	const tasks = 8
	task := func(wg *sync.WaitGroup) {
		deepSink.Add(int64(deep(64)))
		wg.Done()
	}
	b.Run("go", func(b *testing.B) {
		var wg sync.WaitGroup
		for i := 0; i < b.N; i++ {
			wg.Add(tasks)
			for j := 0; j < tasks; j++ {
				go task(&wg)
			}
			wg.Wait()
		}
	})
	b.Run("pageio.Go", func(b *testing.B) {
		var wg sync.WaitGroup
		for i := 0; i < b.N; i++ {
			wg.Add(tasks)
			for j := 0; j < tasks; j++ {
				Go(func() { task(&wg) })
			}
			wg.Wait()
		}
	})
}
