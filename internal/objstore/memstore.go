package objstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
)

// Consistency configures the eventual-consistency anomalies the simulated
// store exhibits. The model is read-count based rather than clock based so
// tests are deterministic and independent of the time scale:
//
//   - A freshly created object answers ErrNotFound to its first
//     NewKeyMissReads Get/Exists probes (scenario 3 of §3 in the paper).
//   - An overwritten object serves the previous version to its first
//     StaleReads Gets after the overwrite (scenario 2). The engine never
//     overwrites, which is exactly why it is immune to this anomaly; the
//     store still models it so tests can demonstrate the hazard.
type Consistency struct {
	NewKeyMissReads int
	StaleReads      int
}

// Config parameterizes a MemStore.
type Config struct {
	// Consistency selects the anomaly model. The zero value is a strongly
	// consistent store.
	Consistency Consistency

	// ReadLatency / WriteLatency are the per-request service times. They are
	// slept outside any shared resource, so parallel requests overlap them —
	// the property that lets aggressive prefetching mask S3 latency.
	ReadLatency  iomodel.Latency
	WriteLatency iomodel.Latency

	// Network, if non-nil, models the compute instance's NIC; it is shared
	// with whatever else the experiment attaches to it (e.g. load input
	// files) and is consumed on both uploads and downloads.
	Network *iomodel.Resource

	// PrefixRate, if positive, is the maximum sustained requests per second
	// a single key prefix can absorb before requests queue (S3 throttles per
	// prefix). The prefix is the part of the key before the first '/'.
	PrefixRate float64

	// Scale is the time scale for latency sleeps. Nil means no sleeping.
	Scale *iomodel.Scale

	// Seed seeds the jitter source.
	Seed int64

	// Faults, when non-nil, is consulted before every request: the Plan's
	// ObjPut/ObjGet/ObjDelete/ObjExists/ObjList sites can fail any
	// operation (real S3 throttles deletes and lists too), and its
	// ObjVisibility lag site adds per-key visibility spikes on top of
	// Consistency.NewKeyMissReads. Failures are reported as ErrInjected
	// joined with faultinject.ErrInjected.
	Faults *faultinject.Plan
}

type object struct {
	versions  [][]byte // versions[len-1] is the latest
	missLeft  int      // remaining Gets that must report not-found
	staleLeft int      // remaining Gets served from the previous version
}

// MemStore is an in-memory Store implementing the simulation in Config.
type MemStore struct {
	cfg     Config
	scale   *iomodel.Scale
	rnd     *iomodel.Rand
	metrics Metrics

	mu       sync.Mutex
	objects  map[string]*object
	prefixes map[string]*iomodel.Resource
}

var _ Store = (*MemStore)(nil)

// NewMem returns a MemStore with the given configuration.
func NewMem(cfg Config) *MemStore {
	scale := cfg.Scale
	if scale == nil {
		scale = iomodel.NewScale(0)
	}
	return &MemStore{
		cfg:      cfg,
		scale:    scale,
		rnd:      iomodel.NewRand(cfg.Seed),
		objects:  make(map[string]*object),
		prefixes: make(map[string]*iomodel.Resource),
	}
}

// Metrics exposes the request counters.
func (s *MemStore) Metrics() *Metrics { return &s.metrics }

// inject consults the fault plan; a non-nil return is the error the caller
// surfaces. It satisfies errors.Is for both objstore.ErrInjected and
// faultinject.ErrInjected.
func (s *MemStore) inject(op string, site faultinject.Site, key string) error {
	if err := s.cfg.Faults.Check(site, key); err != nil {
		return fmt.Errorf("%s %q: %w", op, key, errors.Join(ErrInjected, err))
	}
	return nil
}

// StoredBytes reports the total size of all latest object versions. It feeds
// the data-at-rest cost model.
func (s *MemStore) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, o := range s.objects {
		if len(o.versions) > 0 {
			n += int64(len(o.versions[len(o.versions)-1]))
		}
	}
	return n
}

// Len reports the number of objects currently stored.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

func (s *MemStore) throttlePrefix(key string) {
	if s.cfg.PrefixRate <= 0 {
		return
	}
	prefix := key
	if i := strings.IndexByte(key, '/'); i >= 0 {
		prefix = key[:i]
	}
	s.mu.Lock()
	r, ok := s.prefixes[prefix]
	if !ok {
		perOp := time.Duration(float64(time.Second) / s.cfg.PrefixRate)
		r = iomodel.NewResource(s.scale, perOp, 0)
		s.prefixes[prefix] = r
	}
	s.mu.Unlock()
	r.Acquire(0)
}

// Put implements Store.
func (s *MemStore) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.metrics.puts.Add(1)
	if err := s.inject("put", faultinject.ObjPut, key); err != nil {
		return err
	}
	s.throttlePrefix(key)
	s.scale.Sleep(s.cfg.WriteLatency.Duration(len(data), s.rnd))
	s.cfg.Network.Acquire(len(data))
	s.metrics.bytesIn.Add(int64(len(data)))

	cp := make([]byte, len(data))
	copy(cp, data)

	s.mu.Lock()
	defer s.mu.Unlock()
	o, exists := s.objects[key]
	if !exists {
		// A visibility-lag spike extends the not-found window for this
		// particular fresh key beyond the baseline anomaly model.
		s.objects[key] = &object{
			versions: [][]byte{cp},
			missLeft: s.cfg.Consistency.NewKeyMissReads + s.cfg.Faults.LagAt(faultinject.ObjVisibility, key),
		}
		return nil
	}
	o.versions = append(o.versions, cp)
	o.staleLeft = s.cfg.Consistency.StaleReads
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.metrics.gets.Add(1)
	if err := s.inject("get", faultinject.ObjGet, key); err != nil {
		return nil, err
	}
	s.throttlePrefix(key)

	s.mu.Lock()
	o, ok := s.objects[key]
	if !ok {
		s.mu.Unlock()
		s.metrics.getMisses.Add(1)
		s.scale.Sleep(s.cfg.ReadLatency.Duration(0, s.rnd))
		return nil, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	if o.missLeft > 0 {
		o.missLeft--
		s.mu.Unlock()
		s.metrics.getMisses.Add(1)
		s.scale.Sleep(s.cfg.ReadLatency.Duration(0, s.rnd))
		return nil, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	version := o.versions[len(o.versions)-1]
	if o.staleLeft > 0 && len(o.versions) > 1 {
		o.staleLeft--
		version = o.versions[len(o.versions)-2]
	}
	s.mu.Unlock()

	s.scale.Sleep(s.cfg.ReadLatency.Duration(len(version), s.rnd))
	s.cfg.Network.Acquire(len(version))
	s.metrics.bytesOut.Add(int64(len(version)))

	cp := make([]byte, len(version))
	copy(cp, version)
	return cp, nil
}

// Delete implements Store. Deleting a missing key succeeds, as on S3.
func (s *MemStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.metrics.deletes.Add(1)
	if err := s.inject("delete", faultinject.ObjDelete, key); err != nil {
		return err
	}
	s.throttlePrefix(key)
	s.scale.Sleep(s.cfg.WriteLatency.Duration(0, s.rnd))

	s.mu.Lock()
	delete(s.objects, key)
	s.mu.Unlock()
	return nil
}

// Exists implements Store, honoring the same visibility rules as Get.
func (s *MemStore) Exists(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	s.metrics.gets.Add(1)
	if err := s.inject("exists", faultinject.ObjExists, key); err != nil {
		return false, err
	}
	s.throttlePrefix(key)
	s.scale.Sleep(s.cfg.ReadLatency.Duration(0, s.rnd))

	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[key]
	if !ok {
		return false, nil
	}
	if o.missLeft > 0 {
		o.missLeft--
		return false, nil
	}
	return true, nil
}

// List implements Store.
func (s *MemStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.metrics.lists.Add(1)
	if err := s.inject("list", faultinject.ObjList, prefix); err != nil {
		return nil, err
	}
	s.scale.Sleep(s.cfg.ReadLatency.Duration(0, s.rnd))

	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k, o := range s.objects {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if o.missLeft > 0 {
			// Listing is an observation too: eventual consistency
			// converges as clients keep looking.
			o.missLeft--
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// AllKeys returns every stored key, sorted, ignoring visibility windows and
// fault rules — the omniscient oracle crash-simulation audits compare the
// engine's reachable set against.
func (s *MemStore) AllKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// OverwrittenKeys returns, sorted, every key that has been Put more than
// once over its lifetime. The engine's never-write-twice discipline means
// any entry here is a protocol violation.
func (s *MemStore) OverwrittenKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k, o := range s.objects {
		if len(o.versions) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
