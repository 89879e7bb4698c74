package pageio

import (
	"context"
	"encoding/json"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"cloudiq/internal/trace"
)

// StatsRegistry collects per-layer I/O statistics. Each Meter stage in a
// pipeline owns one named LayerStats, so the same logical request is visible
// once per layer it crosses ("dbspace:user" above the retry stage,
// "store:user" below it — the difference between the two read counts IS the
// retry amplification).
//
// Latencies are sampled from the wall clock and feed histograms only; no
// control flow depends on them.
type StatsRegistry struct {
	mu     sync.Mutex
	layers map[string]*LayerStats
}

// NewRegistry returns an empty registry sampling the wall clock.
func NewRegistry() *StatsRegistry {
	return &StatsRegistry{layers: make(map[string]*LayerStats)}
}

// Layer returns the named layer's stats, creating them on first use.
func (r *StatsRegistry) Layer(name string) *LayerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := r.layers[name]
	if ls == nil {
		ls = &LayerStats{}
		r.layers[name] = ls
	}
	return ls
}

// Snapshot captures every layer's counters. The map is JSON-marshalable;
// encoding/json sorts the keys.
func (r *StatsRegistry) Snapshot() map[string]LayerSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]LayerSnapshot, len(r.layers))
	for name, ls := range r.layers {
		out[name] = ls.snapshot()
	}
	return out
}

// WriteJSON renders the registry as indented JSON:
//
//	{"<layer>": {"read"|"write"|"delete": {
//	    "calls": N, "items": N, "errors": N, "bytes": N,
//	    "lat_ns_pow2": [c0, c1, ...]}}}
//
// lat_ns_pow2[i] counts calls whose latency was in [2^(i-1), 2^i) ns.
func (r *StatsRegistry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// histBuckets covers latencies up to 2^39 ns (~9 minutes) per call.
const histBuckets = 40

// opClass indexes a layer's operation classes.
type opClass int

const (
	opRead opClass = iota
	opWrite
	opDelete
	opSelect
	numOpClasses
)

// LayerStats aggregates one pipeline stage's reads, writes, deletes and
// selects. Batch calls count once in calls and per-page in items.
type LayerStats struct {
	ops [numOpClasses]opStats
}

func (ls *LayerStats) snapshot() LayerSnapshot {
	return LayerSnapshot{
		Read:   ls.ops[opRead].snapshot(),
		Write:  ls.ops[opWrite].snapshot(),
		Delete: ls.ops[opDelete].snapshot(),
		Select: ls.ops[opSelect].snapshot(),
	}
}

type opStats struct {
	calls  atomic.Uint64
	items  atomic.Uint64
	errors atomic.Uint64
	bytes  atomic.Uint64
	hist   [histBuckets]atomic.Uint64
}

func (s *opStats) record(elapsed time.Duration, items, errs int, nbytes int) {
	s.calls.Add(1)
	s.items.Add(uint64(items))
	s.errors.Add(uint64(errs))
	s.bytes.Add(uint64(nbytes))
	b := bits.Len64(uint64(elapsed.Nanoseconds()))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s.hist[b].Add(1)
}

func (s *opStats) snapshot() OpSnapshot {
	snap := OpSnapshot{
		Calls:  s.calls.Load(),
		Items:  s.items.Load(),
		Errors: s.errors.Load(),
		Bytes:  s.bytes.Load(),
	}
	last := -1
	for i := range s.hist {
		if s.hist[i].Load() > 0 {
			last = i
		}
	}
	snap.LatNSPow2 = make([]uint64, last+1)
	for i := 0; i <= last; i++ {
		snap.LatNSPow2[i] = s.hist[i].Load()
	}
	return snap
}

// LayerSnapshot is the JSON shape of one layer.
type LayerSnapshot struct {
	Read   OpSnapshot `json:"read"`
	Write  OpSnapshot `json:"write"`
	Delete OpSnapshot `json:"delete"`
	Select OpSnapshot `json:"select"`
}

// OpSnapshot is the JSON shape of one operation class. LatNSPow2 is trimmed
// after its last non-zero bucket.
type OpSnapshot struct {
	Calls     uint64   `json:"calls"`
	Items     uint64   `json:"items"`
	Errors    uint64   `json:"errors"`
	Bytes     uint64   `json:"bytes"`
	LatNSPow2 []uint64 `json:"lat_ns_pow2"`
}

// Meter returns the middleware observing one pipeline layer, its only
// observer. Each operation crossing it opens a child span of the context's
// span, if any, labelled with the layer name ("dbspace:user", "ocm:user",
// "dev:user", ...) and, when reg is non-nil, is recorded into reg's layer of
// that name, so a layer's span and counters describe the same call. Above
// Retry it times the caller-visible operation, every attempt included, and
// Retry and Coalesce annotate its span; below Retry each attempt is its own
// call, so metering both sides exposes the retry amplification.
func Meter(reg *StatsRegistry, layer string) Middleware {
	return func(next Handler) Handler {
		m := &meter{next: next, layer: layer}
		if reg != nil {
			m.stats, m.now = reg.Layer(layer), time.Now
		}
		return m
	}
}

type meter struct {
	next  Handler
	layer string
	stats *LayerStats // nil: the layer opens spans only
	now   func() time.Time
}

// begin opens op's span when the context carries one and samples the
// latency clock when the layer keeps stats.
func (m *meter) begin(ctx context.Context, op string) (context.Context, *trace.Span, time.Time) {
	var sp *trace.Span
	if parent := trace.From(ctx); parent != nil {
		sp = parent.Child(op, trace.String("layer", m.layer))
		ctx = trace.With(ctx, sp)
	}
	var start time.Time
	if m.stats != nil {
		start = m.now()
	}
	return ctx, sp, start
}

// end records one call of class op when the layer keeps stats, then closes
// sp, recording err if any.
func (m *meter) end(sp *trace.Span, err error, op opClass, start time.Time, items, errs, nbytes int) {
	if m.stats != nil {
		m.stats.ops[op].record(m.now().Sub(start), items, errs, nbytes)
	}
	if sp != nil && err != nil {
		sp.SetAttr("err", err.Error())
	}
	sp.End()
}

// failedItems counts the items of an n-item operation that err reports
// failed.
func failedItems(err error, n int) int {
	if err == nil {
		return 0
	}
	nerr := 0
	for _, e := range ItemErrors(err, n) {
		if e != nil {
			nerr++
		}
	}
	return nerr
}

func (m *meter) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	ctx, sp, start := m.begin(ctx, "pageio.read")
	if sp != nil {
		sp.SetAttr("ref", ref.Detail())
	}
	data, err := m.next.ReadPage(ctx, ref)
	sp.AddInt("bytes", int64(len(data)))
	m.end(sp, err, opRead, start, 1, failedItems(err, 1), len(data))
	return data, err
}

func (m *meter) WritePage(ctx context.Context, req WriteReq) error {
	ctx, sp, start := m.begin(ctx, "pageio.write")
	if sp != nil {
		sp.SetAttr("ref", req.Ref.Detail())
		sp.AddInt("bytes", int64(len(req.Data)))
		if req.Async {
			sp.SetAttr("async", "true")
		}
	}
	err := m.next.WritePage(ctx, req)
	m.end(sp, err, opWrite, start, 1, failedItems(err, 1), len(req.Data))
	return err
}

func (m *meter) Delete(ctx context.Context, ref Ref) error {
	ctx, sp, start := m.begin(ctx, "pageio.delete")
	if sp != nil {
		sp.SetAttr("ref", ref.Detail())
	}
	err := m.next.Delete(ctx, ref)
	m.end(sp, err, opDelete, start, 1, failedItems(err, 1), 0)
	return err
}

func (m *meter) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	ctx, sp, start := m.begin(ctx, "pageio.readbatch")
	sp.AddInt("items", int64(len(refs)))
	out, err := m.next.ReadBatch(ctx, refs)
	nbytes := 0
	for _, data := range out {
		nbytes += len(data)
	}
	sp.AddInt("bytes", int64(nbytes))
	m.end(sp, err, opRead, start, len(refs), failedItems(err, len(refs)), nbytes)
	return out, err
}

func (m *meter) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	ctx, sp, start := m.begin(ctx, "pageio.writebatch")
	nbytes := 0
	for _, req := range reqs {
		nbytes += len(req.Data)
	}
	sp.AddInt("items", int64(len(reqs)))
	sp.AddInt("bytes", int64(nbytes))
	err := m.next.WriteBatch(ctx, reqs)
	m.end(sp, err, opWrite, start, len(reqs), failedItems(err, len(reqs)), nbytes)
	return err
}
