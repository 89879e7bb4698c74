package iomodel

import (
	"sync"
	"time"
)

// Resource models a serially shared capacity such as a device's aggregate
// bandwidth, a volume's provisioned IOPS, or an instance's network link.
// Each acquisition holds the resource for a service time of
// perOp + transfer(n bytes), so concurrent callers queue behind one another
// exactly as requests queue at a saturated device. Latency that does not
// consume shared capacity (e.g. request round-trip time) should be slept
// outside the resource so that parallel requests overlap it.
type Resource struct {
	mu          sync.Mutex
	scale       *Scale
	perOp       time.Duration
	bytesPerSec float64

	ops   int64
	bytes int64
}

// NewResource builds a Resource. perOp is the fixed service time consumed by
// every operation (1/IOPS for an IOPS-capped volume); bytesPerSec is the
// aggregate transfer capacity (0 = unlimited). scale must be non-nil.
func NewResource(scale *Scale, perOp time.Duration, bytesPerSec float64) *Resource {
	return &Resource{scale: scale, perOp: perOp, bytesPerSec: bytesPerSec}
}

// Acquire occupies the resource for the service time of an n-byte operation.
func (r *Resource) Acquire(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ops++
	r.bytes += int64(n)
	d := r.perOp + TransferTime(n, r.bytesPerSec)
	if d > 0 {
		r.scale.Sleep(d)
	}
	r.mu.Unlock()
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
