// Package blockdev provides simulated block devices with strong consistency:
// the conventional dbspace substrate (EBS- and EFS-like volumes) and the
// locally attached SSD used by the Object Cache Manager. Unlike the object
// store, a block device serializes at the device: reads and writes contend
// for one queue, which is what produces the paper's OCM brown-out (reads for
// cache hits slowing down when asynchronous writes saturate the SSD).
package blockdev

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
)

// ErrOutOfRange is returned when an I/O extends past the device size and the
// device is not growable.
var ErrOutOfRange = errors.New("blockdev: I/O beyond device size")

// Device is the block-device contract used by conventional dbspaces and the
// OCM. Offsets are byte offsets; devices are byte-addressable in the
// simulation (the dbspace layer imposes block alignment).
type Device interface {
	ReadAt(ctx context.Context, p []byte, off int64) error
	WriteAt(ctx context.Context, p []byte, off int64) error
	Size() int64
}

// Config parameterizes a MemDevice.
type Config struct {
	// Capacity is the device size in bytes. If Growable is set, writes past
	// the end extend the device instead of failing.
	Capacity int64
	Growable bool

	// ReadLatency / WriteLatency are per-request service times slept outside
	// the device queue (e.g. network round trip to a remote volume).
	ReadLatency  iomodel.Latency
	WriteLatency iomodel.Latency

	// Queue, if non-nil, is the device's serial service capacity: a
	// combined IOPS (per-op) and bandwidth (per-byte) limit that reads and
	// writes share. This is where queueing delay comes from.
	Queue *iomodel.Resource

	// Network, if non-nil, models a shared NIC consumed by remote volumes.
	Network *iomodel.Resource

	// Scale is the time scale for latency sleeps. Nil means no sleeping.
	Scale *iomodel.Scale

	// Seed seeds the jitter source.
	Seed int64

	// Faults, when non-nil, is consulted on every I/O: the Plan's DevRead
	// and DevWrite sites inject hard I/O errors (detail is the decimal
	// byte offset, so rules can target one location), and a non-zero
	// DevTornWrite lag draw persists only that many bytes of a write
	// before failing it — the torn page a power cut leaves behind.
	Faults *faultinject.Plan
}

// Stats counts device operations.
type Stats struct {
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// Reads returns the number of read requests.
func (s *Stats) Reads() int64 { return s.reads.Load() }

// Writes returns the number of write requests.
func (s *Stats) Writes() int64 { return s.writes.Load() }

// BytesRead returns the total bytes read.
func (s *Stats) BytesRead() int64 { return s.bytesRead.Load() }

// BytesWritten returns the total bytes written.
func (s *Stats) BytesWritten() int64 { return s.bytesWritten.Load() }

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.reads.Store(0)
	s.writes.Store(0)
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
}

// MemDevice is an in-memory Device implementing the simulation in Config.
type MemDevice struct {
	cfg   Config
	scale *iomodel.Scale
	rnd   *iomodel.Rand
	stats Stats

	mu   sync.RWMutex
	data []byte
}

var _ Device = (*MemDevice)(nil)

// NewMem returns a MemDevice with the given configuration.
func NewMem(cfg Config) *MemDevice {
	scale := cfg.Scale
	if scale == nil {
		scale = iomodel.NewScale(0)
	}
	return &MemDevice{
		cfg:   cfg,
		scale: scale,
		rnd:   iomodel.NewRand(cfg.Seed),
		data:  make([]byte, cfg.Capacity),
	}
}

// grow extends data to length end with zero bytes. Capacity doubles when it
// runs out, so appending records to a log copies each byte a bounded number
// of times instead of once per append; spare capacity is only ever handed out
// by make and never written, so the bytes a reslice exposes are zero.
func grow(data []byte, end int64) []byte {
	if end <= int64(cap(data)) {
		return data[:end]
	}
	grown := make([]byte, end, max(end, 2*int64(cap(data))))
	copy(grown, data)
	return grown
}

// Stats exposes the operation counters.
func (d *MemDevice) Stats() *Stats { return &d.stats }

// Size implements Device.
func (d *MemDevice) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data))
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(ctx context.Context, p []byte, off int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("read at %d: %w", off, ErrOutOfRange)
	}
	if err := d.cfg.Faults.Check(faultinject.DevRead, strconv.FormatInt(off, 10)); err != nil {
		return fmt.Errorf("read at %d: %w", off, err)
	}
	d.stats.reads.Add(1)
	d.stats.bytesRead.Add(int64(len(p)))
	d.scale.Sleep(d.cfg.ReadLatency.Duration(len(p), d.rnd))
	d.cfg.Network.Acquire(len(p))
	d.cfg.Queue.Acquire(len(p))

	d.mu.RLock()
	defer d.mu.RUnlock()
	if off+int64(len(p)) > int64(len(d.data)) {
		return fmt.Errorf("read [%d,%d) of %d: %w", off, off+int64(len(p)), len(d.data), ErrOutOfRange)
	}
	copy(p, d.data[off:])
	return nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(ctx context.Context, p []byte, off int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("write at %d: %w", off, ErrOutOfRange)
	}
	detail := strconv.FormatInt(off, 10)
	if err := d.cfg.Faults.Check(faultinject.DevWrite, detail); err != nil {
		return fmt.Errorf("write at %d: %w", off, err)
	}
	// A torn write persists a prefix of the payload and then fails, the
	// way a crash mid-write leaves a partial page on disk.
	torn := -1
	if n := d.cfg.Faults.LagAt(faultinject.DevTornWrite, detail); n > 0 && n < len(p) {
		torn = n
	}
	d.stats.writes.Add(1)
	d.stats.bytesWritten.Add(int64(len(p)))
	d.scale.Sleep(d.cfg.WriteLatency.Duration(len(p), d.rnd))
	d.cfg.Network.Acquire(len(p))
	d.cfg.Queue.Acquire(len(p))

	d.mu.Lock()
	defer d.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(d.data)) {
		if !d.cfg.Growable {
			return fmt.Errorf("write [%d,%d) of %d: %w", off, end, len(d.data), ErrOutOfRange)
		}
		d.data = grow(d.data, end)
	}
	if torn >= 0 {
		copy(d.data[off:], p[:torn])
		return fmt.Errorf("write at %d: torn after %d of %d bytes: %w",
			off, torn, len(p), faultinject.ErrInjected)
	}
	copy(d.data[off:], p)
	return nil
}
