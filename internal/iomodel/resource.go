package iomodel

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"
)

// Resource models a serially shared capacity such as a device's aggregate
// bandwidth, a volume's provisioned IOPS, or an instance's network link.
// Each acquisition holds the resource for a service time of
// perOp + transfer(n bytes) of virtual time from the caller's activity
// clock on, so concurrent callers queue behind one another as requests
// queue at a saturated device. Callers reach the resource in real-time
// order, not virtual order: one that comes later in real time but earlier
// in virtual time is served in the idle stretches the requests already
// booked left after its arrival, and then after them (DESIGN.md "The
// modelled-I/O clock"). Latency that does not consume shared capacity
// (e.g. request round-trip time) should be slept outside the resource so
// that parallel requests overlap it.
type Resource struct {
	mu          sync.Mutex
	scale       *Scale
	perOp       time.Duration
	bytesPerSec float64

	// busy holds the latest busy stretches of virtual time, in order and
	// disjoint; floor is the end of the last one forgotten, before which
	// the resource counts as busy.
	busy  []span
	floor time.Duration
	ops   int64
	bytes int64
}

// span is a stretch [start, end) of virtual time.
type span struct{ start, end time.Duration }

// resourceHistory is how many busy stretches a Resource remembers at
// least: holding twice as many, it forgets the older half.
const resourceHistory = 1024

// NewResource builds a Resource. perOp is the fixed service time consumed by
// every operation (1/IOPS for an IOPS-capped volume); bytesPerSec is the
// aggregate transfer capacity (0 = unlimited). scale must be non-nil.
func NewResource(scale *Scale, perOp time.Duration, bytesPerSec float64) *Resource {
	return &Resource{scale: scale, perOp: perOp, bytesPerSec: bytesPerSec}
}

// Acquire occupies the resource for the service time of an n-byte
// operation, charges that time to the scale, and moves ctx's clock to the
// end of the operation. Outside an activity it only charges and counts.
func (r *Resource) Acquire(ctx context.Context, n int) {
	if r == nil {
		return
	}
	d := r.perOp + TransferTime(n, r.bytesPerSec)
	if d > 0 {
		r.scale.charged.Add(int64(d))
	}
	c := clockOf(ctx)
	r.mu.Lock()
	r.ops++
	r.bytes += int64(n)
	if c == nil {
		r.mu.Unlock()
		return
	}
	end := r.placeLocked(time.Duration(c.ns.Load()), d)
	r.mu.Unlock()
	JoinAt(ctx, end)
}

// placeLocked books d of service from at on: the service takes the idle
// stretches after at in order, as much of each as it still needs, so
// capacity an earlier-placed request left idle is not lost to a later one.
// It returns the service's end.
func (r *Resource) placeLocked(at, d time.Duration) time.Duration {
	at = max(at, r.floor)
	for d > 0 {
		i := sort.Search(len(r.busy), func(i int) bool { return r.busy[i].end > at })
		if i < len(r.busy) && r.busy[i].start <= at {
			at = r.busy[i].end // at is inside a busy stretch: skip it
			continue
		}
		use := d
		if i < len(r.busy) {
			use = min(d, r.busy[i].start-at)
		}
		r.occupyLocked(i, at, at+use)
		at += use
		d -= use
	}
	if len(r.busy) >= 2*resourceHistory {
		r.floor = r.busy[resourceHistory-1].end
		r.busy = append(r.busy[:0], r.busy[resourceHistory:]...)
	}
	return at
}

// occupyLocked marks the idle stretch [start, end) busy; busy[i] is the
// first stretch after it.
func (r *Resource) occupyLocked(i int, start, end time.Duration) {
	prev := i > 0 && r.busy[i-1].end == start
	next := i < len(r.busy) && r.busy[i].start == end
	switch {
	case prev && next:
		r.busy[i-1].end = r.busy[i].end
		r.busy = append(r.busy[:i], r.busy[i+1:]...)
	case prev:
		r.busy[i-1].end = end
	case next:
		r.busy[i].start = start
	default:
		r.busy = slices.Insert(r.busy, i, span{start, end})
	}
}

// Stats reports the operations and bytes served so far.
func (r *Resource) Stats() (ops, bytes int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops, r.bytes
}
