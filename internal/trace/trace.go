// Package trace is a stdlib-only structured tracing layer for following one
// operation — a commit, a query, a recovery — through every storage layer it
// crosses: txn → buffer → ocm → pageio → device/store.
//
// Spans form trees via parent links and carry small key=value attribute
// lists (layer, key, bytes, attempt counts, cache hit/miss). Timestamps come
// from an injected clock — in the experiment harness that clock is the
// simulated iomodel.Scale charge counter, so traces are deterministic across
// runs and the package stays clean under the noclock analyzer: nothing here
// reads wall time.
//
// Completed spans land in a fixed-capacity ring buffer (old spans are
// evicted, never blocked on) plus a slow-op log that keeps the top-N spans
// over a configurable threshold even after the ring has wrapped past them.
//
// Propagation is by context: an entry point with a *Tracer opens a root via
// Root, interior layers open children via Start. Every accessor is nil-safe —
// with no tracer configured, From(ctx) returns nil and all span methods are
// no-ops, so instrumented hot paths cost one context lookup and a nil check.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Attr is one key=value annotation on a span. Values are strings; use Int
// for counters so rendering stays uniform.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Config parameterises a Tracer.
type Config struct {
	// Now supplies timestamps. The experiment harness wires this to the
	// simulated clock (iomodel.Scale.Charged); tests inject fakes. A nil
	// Now yields a tracer whose spans all carry zero timestamps — span
	// structure and attributes still record.
	Now func() time.Duration
	// Capacity bounds the completed-span ring buffer (default 4096).
	Capacity int
	// SlowThreshold admits a completed span into the slow-op log when its
	// duration meets or exceeds it. Zero disables the slow-op log.
	SlowThreshold time.Duration
	// SlowN bounds the slow-op log (default 32).
	SlowN int
}

// SpanData is the immutable record of a completed span.
type SpanData struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Tracer collects completed spans. The zero value is unusable; construct
// with New. A nil *Tracer is valid everywhere and records nothing.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Duration
	base    time.Duration // re-basing offset applied to the current clock
	zero    time.Duration // current clock's reading when it was installed
	maxSeen time.Duration // high-water mark of timestamps handed out
	nextID  uint64

	ring    []SpanData
	head    int // next write position
	count   int // live entries in ring
	dropped uint64

	slowThreshold time.Duration
	slowN         int
	slow          []SpanData
}

// New returns a Tracer with the given configuration.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.SlowN <= 0 {
		cfg.SlowN = 32
	}
	t := &Tracer{
		ring:          make([]SpanData, cfg.Capacity),
		slowThreshold: cfg.SlowThreshold,
		slowN:         cfg.SlowN,
	}
	t.setClockLocked(cfg.Now)
	return t
}

// SetClock swaps the timestamp source. The new clock is re-based so that
// tracer time never moves backwards: timestamps continue from the high-water
// mark already handed out. This lets one tracer span several experiment
// environments that each start a fresh simulated clock at zero.
func (t *Tracer) SetClock(now func() time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setClockLocked(now)
}

func (t *Tracer) setClockLocked(now func() time.Duration) {
	t.base = t.maxSeen
	t.now = now
	if now != nil {
		t.zero = now()
	} else {
		t.zero = 0
	}
}

// Now reports the tracer's current (re-based) clock reading. Zero on a nil
// tracer or a tracer with no clock.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nowLocked()
}

func (t *Tracer) nowLocked() time.Duration {
	ts := t.base
	if t.now != nil {
		ts += t.now() - t.zero
	}
	if ts < t.maxSeen {
		ts = t.maxSeen // a swapped clock must not rewind recorded time
	}
	t.maxSeen = ts
	return ts
}

// Root opens a root span. Most callers should use the package-level Root,
// which also threads the span through a context.
func (t *Tracer) Root(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	sp := &Span{t: t, id: t.nextID, name: name, start: t.nowLocked()}
	t.mu.Unlock()
	sp.attrs = append(sp.attrs, attrs...)
	return sp
}

func (t *Tracer) child(parent *Span, name string, attrs ...Attr) *Span {
	t.mu.Lock()
	t.nextID++
	sp := &Span{t: t, id: t.nextID, parent: parent.id, name: name, start: t.nowLocked()}
	t.mu.Unlock()
	sp.attrs = append(sp.attrs, attrs...)
	return sp
}

func (t *Tracer) record(d SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == len(t.ring) {
		t.dropped++
	} else {
		t.count++
	}
	t.ring[t.head] = d
	t.head = (t.head + 1) % len(t.ring)

	if t.slowThreshold <= 0 || d.Dur < t.slowThreshold {
		return
	}
	if len(t.slow) < t.slowN {
		t.slow = append(t.slow, d)
		return
	}
	min := 0
	for i := 1; i < len(t.slow); i++ {
		if t.slow[i].Dur < t.slow[min].Dur {
			min = i
		}
	}
	if d.Dur > t.slow[min].Dur {
		t.slow[min] = d
	}
}

// Snapshot returns the retained completed spans in completion order
// (oldest first) plus the count of spans evicted from the ring.
func (t *Tracer) Snapshot() (spans []SpanData, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans = make([]SpanData, 0, t.count)
	start := t.head - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		spans = append(spans, t.ring[(start+i)%len(t.ring)])
	}
	return spans, t.dropped
}

// Slow returns the slow-op log sorted by descending duration.
func (t *Tracer) Slow() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanData, len(t.slow))
	copy(out, t.slow)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// Dump is the JSON shape written by WriteJSON.
type Dump struct {
	Spans   []SpanData `json:"spans"`
	Slow    []SpanData `json:"slow,omitempty"`
	Dropped uint64     `json:"dropped,omitempty"`
}

// WriteJSON dumps the ring buffer and slow-op log as indented JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans, dropped := t.Snapshot()
	d := Dump{Spans: spans, Slow: t.Slow(), Dropped: dropped}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Span is a live operation. All methods are safe on a nil receiver; a nil
// span is how "tracing off" is expressed throughout the engine.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Duration

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Child opens a sub-span. Nil-safe: a nil parent yields a nil child.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.child(s, name, attrs...)
}

// SetAttr appends a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AddInt appends an integer attribute.
func (s *Span) AddInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// Clock reports the owning tracer's current time; zero on a nil span. Layers
// use this to attribute queue-wait time (enqueue stamp vs dequeue stamp)
// without holding a tracer reference of their own.
func (s *Span) Clock() time.Duration {
	if s == nil {
		return 0
	}
	return s.t.Now()
}

// End completes the span and records it with the tracer. Ending twice is a
// no-op, as is ending a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	end := s.t.Now()
	s.t.record(SpanData{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    end - s.start,
		Attrs:  attrs,
	})
}
