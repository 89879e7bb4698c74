// Package iomodel provides the timing substrate shared by the simulated
// storage devices: latency models, shared capacities (a device queue, a
// provisioned IOPS budget, a network link), and the clock they charge.
// Modelled I/O never sleeps: it advances the virtual clock of the activity
// on the caller's context (clock.go), so concurrency effects — parallel I/O
// masking latency, bandwidth saturation — come out of fork, join and queue
// arithmetic, and the host's CPU speed does not reach a simulated second.
package iomodel

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Scale accumulates the simulated time charged by the devices that share
// it, summed over every caller (N concurrent requests charge N times their
// service time). An activity's elapsed simulated time is its clock, not
// this sum.
type Scale struct {
	charged atomic.Int64 // total simulated nanoseconds charged
}

// NewScale returns a Scale. The factor is ignored: it once mapped
// simulated time to real sleeps, and the parameter stays until the callers
// that still pass one are gone.
func NewScale(factor float64) *Scale {
	return &Scale{}
}

// Sleep charges d of simulated time and advances ctx's activity clock by d.
// It never blocks; a non-positive d does nothing.
func (s *Scale) Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	s.charged.Add(int64(d))
	advance(ctx, d)
}

// Charged reports the total simulated time charged through this Scale.
func (s *Scale) Charged() time.Duration {
	return time.Duration(s.charged.Load())
}

// ResetCharged zeroes the charged-time accumulator.
func (s *Scale) ResetCharged() {
	s.charged.Store(0)
}

// Rand is a concurrency-safe seeded uniform source shared by the device
// models so that experiments are reproducible.
type Rand struct {
	mu  sync.Mutex
	src *rand.Rand
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{src: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	r.mu.Lock()
	v := r.src.Float64()
	r.mu.Unlock()
	return v
}

// Int63n returns a uniform value in [0,n).
func (r *Rand) Int63n(n int64) int64 {
	r.mu.Lock()
	v := r.src.Int63n(n)
	r.mu.Unlock()
	return v
}

// Latency describes the service time of a single I/O against a device:
// a fixed per-request cost plus a transfer cost derived from a throughput
// rate, with optional uniform jitter expressed as a fraction of the base
// (0.1 = ±10%).
type Latency struct {
	Base        time.Duration // per-request latency
	BytesPerSec float64       // transfer rate; 0 means transfers are free
	Jitter      float64       // fraction of Base applied as ± uniform jitter
}

// Duration computes the service time of an I/O of n bytes. rnd may be nil,
// in which case no jitter is applied.
func (l Latency) Duration(n int, rnd *Rand) time.Duration {
	d := l.Base + TransferTime(n, l.BytesPerSec)
	if l.Jitter > 0 && rnd != nil {
		j := (rnd.Float64()*2 - 1) * l.Jitter * float64(l.Base)
		d += time.Duration(j)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// TransferTime returns the time to move n bytes at the given rate. A
// non-positive rate means the transfer is instantaneous.
func TransferTime(n int, bytesPerSecond float64) time.Duration {
	if bytesPerSecond <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bytesPerSecond * float64(time.Second))
}
