package iomodel

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// An activity is one timeline of modelled I/O: an experiment's load, a
// query, a stream. Its clock lives on the context and reads simulated time
// only — Scale.Sleep and Resource.Acquire advance it, CPU work never does.
// Concurrency is expressed by forking: a child clock starts at the parent's
// time and the parent joins at the maximum of its children, so parallel
// requests overlap instead of adding up. A context that carries no activity
// makes every function here a no-op that allocates nothing.

// clock is one activity's virtual time in nanoseconds. Forks give each
// goroutine its own clock, but a context may still be shared by goroutines
// a component starts without forking, so every access is atomic.
type clock struct{ ns atomic.Int64 }

type clockKey struct{}

func clockOf(ctx context.Context) *clock {
	c, _ := ctx.Value(clockKey{}).(*clock)
	return c
}

// Start returns ctx carrying a new activity whose clock reads 0.
func Start(ctx context.Context) context.Context {
	return context.WithValue(ctx, clockKey{}, &clock{})
}

// Active reports whether ctx carries an activity.
func Active(ctx context.Context) bool {
	return clockOf(ctx) != nil
}

// Now reads ctx's activity clock; 0 outside an activity.
func Now(ctx context.Context) time.Duration {
	if c := clockOf(ctx); c != nil {
		return time.Duration(c.ns.Load())
	}
	return 0
}

// advance moves ctx's clock forward by d.
func advance(ctx context.Context, d time.Duration) {
	if c := clockOf(ctx); c != nil {
		c.ns.Add(int64(d))
	}
}

// JoinAt moves ctx's clock to t if it reads less: the activity waited for
// something that finished at t (an upload, another reader's load, a freed
// scheduler slot).
func JoinAt(ctx context.Context, t time.Duration) {
	c := clockOf(ctx)
	if c == nil {
		return
	}
	for {
		now := c.ns.Load()
		if int64(t) <= now || c.ns.CompareAndSwap(now, int64(t)) {
			return
		}
	}
}

// Fork returns ctx carrying a child clock that starts at ctx's time, for
// work that runs beside the caller on another goroutine. Outside an
// activity it returns ctx itself.
func Fork(ctx context.Context) context.Context {
	c := clockOf(ctx)
	if c == nil {
		return ctx
	}
	child := &clock{}
	child.ns.Store(c.ns.Load())
	return context.WithValue(ctx, clockKey{}, child)
}

// Join moves ctx's clock to child's if it is later: the caller waited for
// the forked work to finish.
func Join(ctx, child context.Context) {
	JoinAt(ctx, Now(child))
}

// Lanes is n identical servers in modelled time, such as a cache's upload
// workers. A task forked onto them starts when a lane frees, on the lane
// that frees first, whichever goroutine runs it; the caller must keep the
// tasks that hold lanes at once, in real time, to at most n.
type Lanes struct {
	mu   sync.Mutex
	free []time.Duration // each lane's free time; held while a task runs
}

// NewLanes returns n lanes, free from time 0.
func NewLanes(n int) *Lanes {
	return &Lanes{free: make([]time.Duration, max(n, 1))}
}

// Fork returns ctx carrying a child clock that starts at the later of
// ctx's time and the first free lane's, and holds that lane until
// Release. Outside an activity it returns ctx and holds nothing.
func (l *Lanes) Fork(ctx context.Context) context.Context {
	if clockOf(ctx) == nil {
		return ctx
	}
	l.mu.Lock()
	first := 0
	for i, t := range l.free {
		if t < l.free[first] {
			first = i
		}
	}
	start := l.free[first]
	l.free[first] = held
	l.mu.Unlock()
	child := Fork(ctx)
	JoinAt(child, start)
	return child
}

// Release frees the lane child holds at child's time.
func (l *Lanes) Release(child context.Context) {
	if clockOf(child) == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, t := range l.free {
		if t == held {
			l.free[i] = Now(child)
			return
		}
	}
}

// held marks a lane a task is running on.
const held = time.Duration(1<<63 - 1)
