package pageio

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudiq/internal/iomodel"
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

// TestDoStridesUnderActivity: under a modelled-I/O activity worker w runs
// tasks w, w+workers, … on its own clock, so each task starts where the
// previous task of its stride ended, whatever goroutine the scheduler ran
// first, and Do returns at the latest worker's time.
func TestDoStridesUnderActivity(t *testing.T) {
	scale := iomodel.NewScale(0)
	ctx := iomodel.Start(context.Background())
	scale.Sleep(ctx, time.Millisecond)
	durs := []time.Duration{5, 1, 1, 5, 1, 1, 5} // ms; 3 workers
	starts := make([]time.Duration, len(durs))
	errs := NewPool(3).Do(ctx, len(durs), func(tctx context.Context, i int) error {
		starts[i] = iomodel.Now(tctx)
		scale.Sleep(tctx, durs[i]*time.Millisecond)
		return nil
	})
	if err := batchErr(errs); err != nil {
		t.Fatal(err)
	}
	// Strides {0,3,6}, {1,4}, {2,5} from 1ms: 5+5+5, 1+1, 1+1.
	want := []time.Duration{1, 1, 1, 6, 2, 2, 11}
	for i, w := range want {
		if starts[i] != w*time.Millisecond {
			t.Errorf("task %d started at %v, want %v", i, starts[i], w*time.Millisecond)
		}
	}
	if got := iomodel.Now(ctx); got != 16*time.Millisecond {
		t.Fatalf("Do returned at %v, want the longest stride's end, 16ms", got)
	}
}

// TestDoCancelledReportsEveryUnrunTask: a task that never ran reports
// ctx.Err() on both claim orders.
func TestDoCancelledReportsEveryUnrunTask(t *testing.T) {
	for _, timed := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		if timed {
			ctx = iomodel.Start(ctx)
		}
		var ran atomic.Int64
		errs := NewPool(4).Do(ctx, 64, func(context.Context, int) error {
			if ran.Add(1) == 1 {
				cancel()
			}
			return nil
		})
		cancelled := 0
		for _, err := range errs {
			if err == context.Canceled {
				cancelled++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if int(ran.Load())+cancelled != 64 || cancelled == 0 {
			t.Errorf("timed=%v: %d ran, %d cancelled of 64", timed, ran.Load(), cancelled)
		}
	}
}
