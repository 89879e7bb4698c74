package iomodel

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestClockOutsideActivityReadsZero(t *testing.T) {
	ctx := context.Background()
	NewScale(0).Sleep(ctx, time.Second)
	JoinAt(ctx, time.Hour)
	if got := Now(ctx); got != 0 {
		t.Fatalf("Now without an activity = %v, want 0", got)
	}
	if Fork(ctx) != ctx {
		t.Fatal("Fork without an activity made a new context")
	}
}

func TestSleepAdvancesActivity(t *testing.T) {
	s := NewScale(0)
	ctx := Start(context.Background())
	s.Sleep(ctx, 3*time.Millisecond)
	s.Sleep(ctx, 2*time.Millisecond)
	if got := Now(ctx); got != 5*time.Millisecond {
		t.Fatalf("Now = %v, want 5ms", got)
	}
	if got := s.Charged(); got != 5*time.Millisecond {
		t.Fatalf("Charged = %v, want 5ms", got)
	}
}

func TestJoinReadsMaxOfChildren(t *testing.T) {
	s := NewScale(0)
	ctx := Start(context.Background())
	s.Sleep(ctx, time.Millisecond)
	var wg sync.WaitGroup
	children := make([]context.Context, 3)
	for i := range children {
		children[i] = Fork(ctx)
		if got := Now(children[i]); got != time.Millisecond {
			t.Fatalf("child %d starts at %v, want the parent's 1ms", i, got)
		}
		wg.Add(1)
		go func(c context.Context, d time.Duration) {
			defer wg.Done()
			s.Sleep(c, d)
		}(children[i], time.Duration(i+1)*10*time.Millisecond)
	}
	wg.Wait()
	for _, c := range children {
		Join(ctx, c)
	}
	if got := Now(ctx); got != 31*time.Millisecond {
		t.Fatalf("joined clock = %v, want 1ms + the longest child's 30ms", got)
	}
	// Joining a child that finished earlier never moves the clock back.
	JoinAt(ctx, 0)
	if got := Now(ctx); got != 31*time.Millisecond {
		t.Fatalf("JoinAt(0) moved the clock to %v", got)
	}
	if got := s.Charged(); got != 61*time.Millisecond {
		t.Fatalf("Charged = %v, want every sleep summed (61ms)", got)
	}
}

func TestForksQueueOnResource(t *testing.T) {
	r := NewResource(NewScale(0), time.Millisecond, 0)
	ctx := Start(context.Background())
	a, b := Fork(ctx), Fork(ctx)
	var wg sync.WaitGroup
	for _, c := range []context.Context{a, b} {
		wg.Add(1)
		go func(c context.Context) {
			defer wg.Done()
			r.Acquire(c, 0)
		}(c)
	}
	wg.Wait()
	Join(ctx, a)
	Join(ctx, b)
	if got := Now(ctx); got != 2*time.Millisecond {
		t.Fatalf("two forks through a 1ms resource join at %v, want 2ms", got)
	}
	// The resource is free again at 2ms: a caller arriving at 10ms is not
	// delayed. One that reaches the resource after it in real time but at
	// 1ms in virtual time is served in the idle stretch from 2ms; a longer
	// one is served in what is left of the stretches after its arrival.
	late := Start(context.Background())
	JoinAt(late, 10*time.Millisecond)
	r.Acquire(late, 0)
	if got := Now(late); got != 11*time.Millisecond {
		t.Fatalf("late arrival ends at %v, want 11ms", got)
	}
	early := Start(context.Background())
	JoinAt(early, time.Millisecond)
	r.Acquire(early, 0)
	if got := Now(early); got != 3*time.Millisecond {
		t.Fatalf("early arrival ends at %v, want 3ms (the idle stretch from 2ms)", got)
	}
	big := NewResource(NewScale(0), 0, 1e3) // 1 byte per ms
	x, y, z := Start(context.Background()), Start(context.Background()), Start(context.Background())
	JoinAt(x, 10*time.Millisecond)
	big.Acquire(x, 1) // [10ms, 11ms)
	big.Acquire(y, 1) // [0, 1ms): fits before it
	JoinAt(z, 5*time.Millisecond)
	big.Acquire(z, 8) // [5ms, 10ms) and then [11ms, 14ms)
	if Now(y) != time.Millisecond || Now(z) != 14*time.Millisecond {
		t.Fatalf("ends at %v and %v; want 1ms and 14ms", Now(y), Now(z))
	}
}

func TestBackgroundStartsAtEnqueuerTime(t *testing.T) {
	s := NewScale(0)
	ctx := Start(context.Background())
	s.Sleep(ctx, 7*time.Millisecond)
	done := make(chan time.Duration)
	bg := Fork(context.WithoutCancel(ctx))
	go func() {
		s.Sleep(bg, time.Millisecond)
		done <- Now(bg)
	}()
	s.Sleep(ctx, 100*time.Millisecond) // the enqueuer moves on
	if got := <-done; got != 8*time.Millisecond {
		t.Fatalf("background work ended at %v, want 7ms + 1ms", got)
	}
}

func TestLanesServeInTurn(t *testing.T) {
	s := NewScale(0)
	lanes := NewLanes(1)
	ctx := Start(context.Background())
	s.Sleep(ctx, time.Millisecond)
	a := lanes.Fork(ctx)
	s.Sleep(a, 4*time.Millisecond)
	lanes.Release(a)
	b := lanes.Fork(ctx) // queued at 1ms behind a, which ends at 5ms
	if got := Now(b); got != 5*time.Millisecond {
		t.Fatalf("second task on one lane starts at %v, want 5ms", got)
	}
	lanes.Release(b)
	late := Start(context.Background())
	JoinAt(late, 20*time.Millisecond)
	if got := Now(lanes.Fork(late)); got != 20*time.Millisecond {
		t.Fatalf("task arriving after the lane freed starts at %v, want 20ms", got)
	}
}

func TestClockHooksDoNotAllocateOutsideActivity(t *testing.T) {
	s := NewScale(0)
	r := NewResource(s, time.Microsecond, 1e9)
	lanes := NewLanes(2)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		child := lanes.Fork(Fork(ctx))
		s.Sleep(child, time.Millisecond)
		r.Acquire(child, 4096)
		lanes.Release(child)
		Join(ctx, child)
		JoinAt(ctx, time.Second)
		_ = Now(ctx)
	})
	if allocs != 0 {
		t.Fatalf("fork, advance and join outside an activity allocate %v times, want 0", allocs)
	}
}
