package main

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/objstore"
)

// callStats accumulates one decorated boundary's traffic. Wall time is host
// time spent inside the wrapped implementation, summed over callers.
type callStats struct {
	reads, writes, deletes atomic.Int64
	readBytes, writeBytes  atomic.Int64
	errs                   atomic.Int64
	wallNs                 atomic.Int64
}

// into writes the counters under prefix, for the observer's snapshot diffs.
func (s *callStats) into(c counters, prefix string) {
	c[prefix+".reads"] = float64(s.reads.Load())
	c[prefix+".writes"] = float64(s.writes.Load())
	c[prefix+".deletes"] = float64(s.deletes.Load())
	c[prefix+".read_bytes"] = float64(s.readBytes.Load())
	c[prefix+".write_bytes"] = float64(s.writeBytes.Load())
	c[prefix+".errs"] = float64(s.errs.Load())
	c[prefix+".wall_ns"] = float64(s.wallNs.Load())
}

// clock is the decorators' injected time source: the benchmark passes
// time.Now, and the decorators themselves never read the wall (they implement
// the store and device interfaces, so the detclosure analyzer sees them as
// reachable from the simulation tester's deterministic loop).
type clock func() time.Time

func (s *callStats) done(now clock, start time.Time, err error) {
	s.wallNs.Add(int64(now().Sub(start)))
	// Not-found is the eventual-consistency signal the retry layer handles,
	// counted separately by the store's own metrics.
	if err != nil && !errors.Is(err, objstore.ErrNotFound) {
		s.errs.Add(1)
	}
}

// timedStore times every call into an object store. It changes no behaviour:
// it implements the full Store interface and forwards the Selector
// capability, so pushdown scans still reach the store's compute endpoint.
type timedStore struct {
	inner objstore.Store
	now   clock
	stats callStats
}

var (
	_ objstore.Store    = (*timedStore)(nil)
	_ objstore.Selector = (*timedStore)(nil)
)

func (t *timedStore) Put(ctx context.Context, key string, data []byte) error {
	start := t.now()
	err := t.inner.Put(ctx, key, data)
	t.stats.writes.Add(1)
	t.stats.writeBytes.Add(int64(len(data)))
	t.stats.done(t.now, start, err)
	return err
}

func (t *timedStore) Get(ctx context.Context, key string) ([]byte, error) {
	start := t.now()
	data, err := t.inner.Get(ctx, key)
	t.stats.reads.Add(1)
	t.stats.readBytes.Add(int64(len(data)))
	t.stats.done(t.now, start, err)
	return data, err
}

func (t *timedStore) Delete(ctx context.Context, key string) error {
	start := t.now()
	err := t.inner.Delete(ctx, key)
	t.stats.deletes.Add(1)
	t.stats.done(t.now, start, err)
	return err
}

func (t *timedStore) Exists(ctx context.Context, key string) (bool, error) {
	start := t.now()
	ok, err := t.inner.Exists(ctx, key)
	t.stats.done(t.now, start, err)
	return ok, err
}

func (t *timedStore) List(ctx context.Context, prefix string) ([]string, error) {
	start := t.now()
	keys, err := t.inner.List(ctx, prefix)
	t.stats.done(t.now, start, err)
	return keys, err
}

// Select forwards to the wrapped store's compute endpoint, or reports the
// plan unsupported when it has none — exactly what a bare store without the
// capability makes the scan do.
func (t *timedStore) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	sel, ok := t.inner.(objstore.Selector)
	if !ok {
		return nil, objstore.ErrUnsupportedPlan
	}
	start := t.now()
	res, err := sel.Select(ctx, req)
	t.stats.reads.Add(1)
	if res != nil {
		t.stats.readBytes.Add(res.ReturnedBytes)
	}
	t.stats.done(t.now, start, err)
	return res, err
}

// timedDevice times every call into a block device.
type timedDevice struct {
	inner blockdev.Device
	now   clock
	stats callStats
}

var _ blockdev.Device = (*timedDevice)(nil)

func (t *timedDevice) ReadAt(ctx context.Context, p []byte, off int64) error {
	start := t.now()
	err := t.inner.ReadAt(ctx, p, off)
	t.stats.reads.Add(1)
	t.stats.readBytes.Add(int64(len(p)))
	t.stats.done(t.now, start, err)
	return err
}

func (t *timedDevice) WriteAt(ctx context.Context, p []byte, off int64) error {
	start := t.now()
	err := t.inner.WriteAt(ctx, p, off)
	t.stats.writes.Add(1)
	t.stats.writeBytes.Add(int64(len(p)))
	t.stats.done(t.now, start, err)
	return err
}

func (t *timedDevice) Size() int64 { return t.inner.Size() }
