package bench

import (
	"context"
	"sync"
	"time"

	"cloudiq"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/objstore"
)

// newS3 builds an S3-like store: high per-request latency, effectively
// unlimited aggregate bandwidth (only the instance NIC and per-prefix
// throttling constrain it), per-request billing.
// Instance NICs are modeled with nodeStore wrappers, never inside the store
// itself, so scale-out experiments give every node an independent link to
// the shared store.
func newS3(scale *iomodel.Scale, seed int64) *cloudiq.MemObjectStore {
	return objstore.NewMem(objstore.Config{
		ReadLatency:  iomodel.Latency{Base: s3ReadLatency, BytesPerSec: s3PerReqRate, Jitter: 0.2},
		WriteLatency: iomodel.Latency{Base: s3WriteLatency, BytesPerSec: s3PerReqRate, Jitter: 0.2},
		PrefixRate:   s3PrefixRate,
		Scale:        scale,
		Seed:         seed,
	})
}

// newEBS builds a gp2-like volume: low latency, but IOPS- and
// bandwidth-capped at the (shared, serialized) device.
// deviceScale scales shared-volume aggregate bandwidth harder than the NIC:
// the paper's dataset-to-volume-bandwidth ratio (≈500 GB against 250 MB/s)
// is what throttles EBS and EFS, and our compressed dataset is proportionally
// smaller than our input volume.
func deviceScale(bwScale float64) float64 { return bwScale / 5 }

func newEBS(scale *iomodel.Scale, bwScale float64, capacity int64, seed int64) *cloudiq.MemBlockDevice {
	queue := iomodel.NewResource(scale, time.Second/time.Duration(ebsIOPS), ebsRate*deviceScale(bwScale))
	return cloudiq.NewMemBlockDevice(cloudiq.BlockDeviceConfig{
		Capacity:     capacity,
		ReadLatency:  iomodel.Latency{Base: ebsLatency, Jitter: 0.2},
		WriteLatency: iomodel.Latency{Base: ebsLatency, Jitter: 0.2},
		Queue:        queue,
		Scale:        scale,
		Seed:         seed,
	})
}

// newEFS builds an EFS-like volume: NFS-level latency, throughput a
// function of stored size (modeled as a lower fixed cap), traffic on the
// instance NIC.
func newEFS(scale *iomodel.Scale, net *iomodel.Resource, bwScale float64, capacity int64, seed int64) *cloudiq.MemBlockDevice {
	queue := iomodel.NewResource(scale, time.Second/time.Duration(efsIOPS), efsRate*deviceScale(bwScale))
	return cloudiq.NewMemBlockDevice(cloudiq.BlockDeviceConfig{
		Capacity:     capacity,
		ReadLatency:  iomodel.Latency{Base: efsLatency, Jitter: 0.2},
		WriteLatency: iomodel.Latency{Base: efsLatency, Jitter: 0.2},
		Queue:        queue,
		Network:      net,
		Scale:        scale,
		Seed:         seed,
	})
}

// newSSD builds a locally attached NVMe device for the OCM. Reads and
// writes share the serialized device queue, which is what produces the
// brown-out of §6's second experiment under asynchronous write pressure.
func newSSD(scale *iomodel.Scale, bwScale float64, capacity int64, seed int64) *cloudiq.MemBlockDevice {
	queue := iomodel.NewResource(scale, ssdPerOp, ssdRate*bwScale)
	return cloudiq.NewMemBlockDevice(cloudiq.BlockDeviceConfig{
		Capacity:     capacity,
		ReadLatency:  iomodel.Latency{Base: ssdLatency, Jitter: 0.1},
		WriteLatency: iomodel.Latency{Base: ssdLatency, Jitter: 0.1},
		Queue:        queue,
		Scale:        scale,
		Seed:         seed,
	})
}

// nodeStore routes one node's object-store traffic through that node's NIC,
// so that scale-out experiments give every secondary its own network link
// while sharing the store (the property that lets combined S3 throughput
// grow with the number of nodes, §6's fourth experiment).
type nodeStore struct {
	inner cloudiq.ObjectStore
	nic   *iomodel.Resource
	meter *netMeter // nil: the NIC's traffic is not sampled
}

var _ cloudiq.ObjectStore = (*nodeStore)(nil)

// transfer moves n bytes over the node's NIC.
func (n *nodeStore) transfer(ctx context.Context, bytes int) {
	n.nic.Acquire(ctx, bytes)
	if n.meter != nil {
		n.meter.add(iomodel.Now(ctx), bytes)
	}
}

func (n *nodeStore) Put(ctx context.Context, key string, data []byte) error {
	n.transfer(ctx, len(data))
	return n.inner.Put(ctx, key, data)
}

func (n *nodeStore) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := n.inner.Get(ctx, key)
	if err == nil {
		n.transfer(ctx, len(data))
	}
	return data, err
}

func (n *nodeStore) Delete(ctx context.Context, key string) error {
	return n.inner.Delete(ctx, key)
}

func (n *nodeStore) Exists(ctx context.Context, key string) (bool, error) {
	return n.inner.Exists(ctx, key)
}

func (n *nodeStore) List(ctx context.Context, prefix string) ([]string, error) {
	return n.inner.List(ctx, prefix)
}

// Select forwards to the store's compute endpoint when it has one, charging
// the node NIC only for the bytes that actually came back — the asymmetry
// pushdown exists to exploit.
func (n *nodeStore) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	sel, ok := n.inner.(objstore.Selector)
	if !ok {
		return nil, objstore.ErrUnsupportedPlan
	}
	res, err := sel.Select(ctx, req)
	if err == nil {
		n.transfer(ctx, int(res.ReturnedBytes))
	}
	return res, err
}

// meterTick is the width of one Figure 8 sample, in simulated time.
const meterTick = 100 * time.Millisecond

// netMeter buckets the bytes a NIC moves by the simulated time they move
// in. The NIC is a Resource, so its transfers never overlap: a transfer of
// n bytes that ended at t occupied [t − n/rate, t), and its bytes are
// spread evenly over the ticks that interval spans.
type netMeter struct {
	rate float64 // the NIC's bytes per simulated second

	mu    sync.Mutex
	ticks []float64 // bytes moved in each meterTick from time 0
}

func (m *netMeter) add(end time.Duration, n int) {
	d := iomodel.TransferTime(n, m.rate)
	start := end - d
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := int(start / meterTick); i <= int(end/meterTick); i++ {
		for len(m.ticks) <= i {
			m.ticks = append(m.ticks, 0)
		}
		if d <= 0 {
			m.ticks[i] += float64(n)
			return
		}
		lo := max(start, time.Duration(i)*meterTick)
		hi := min(end, time.Duration(i+1)*meterTick)
		if hi > lo {
			m.ticks[i] += float64(n) * float64(hi-lo) / float64(d)
		}
	}
}

// samples returns the ticks from start to end as Figure 8's series,
// unscaled to the paper's bandwidth.
func (m *netMeter) samples(start, end time.Duration) BandwidthSamples {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out BandwidthSamples
	for i := int(start / meterTick); i < len(m.ticks) && time.Duration(i)*meterTick < end; i++ {
		out = append(out, BandwidthSample{
			SimSecond: (time.Duration(i+1)*meterTick - start).Seconds(),
			Gbps:      m.ticks[i] * 8 / meterTick.Seconds() / 1e9 / bandwidthScale,
		})
	}
	return out
}
