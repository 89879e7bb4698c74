// Package faultinject is a seeded, deterministic fault-injection subsystem
// for the storage stack. A Plan owns one MT19937-64 stream per injection
// site (internal/mt), so the fault sequence is a pure function of the seed
// and the per-site call order — the same seed always produces the same
// faults, which is what makes crash-simulation failures reproducible.
//
// Sites are string constants named after the operation they guard
// (ObjPut, WALAppend, RPCNotify, ...). Code under test calls
// Plan.Check(site, detail) before performing the operation; a nil Plan or a
// site with no rule is free. Rules come in three shapes:
//
//   - Prob(site, p): each call fails independently with probability p.
//   - FailAfter(site, skip, n): let the next skip calls through, then fail
//     the following n calls (n < 0 means fail forever — a "crash").
//   - Always(site) / FailNext(site, n): conveniences over FailAfter.
//
// A rule can be scoped to a detail string via site.With(detail) — e.g.
// WALAppend.With("commit") faults only commit-record appends. Lookup tries
// the scoped rule first, then the bare site.
//
// SetBudget caps the total number of injected faults across all sites;
// once spent, every Check passes. Events() returns the ordered trace of
// injected faults and lag draws for same-seed determinism checks.
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"cloudiq/internal/mt"
)

// ErrInjected is the sentinel wrapped by every injected fault.
var ErrInjected = errors.New("faultinject: injected fault")

// Site names an injection point. The part before the first ':' selects the
// per-site PRNG stream; the remainder (added by With) scopes rules to a
// single detail value.
type Site string

// Injection sites wired through the storage stack.
const (
	// Object store operations (internal/objstore).
	ObjPut    Site = "obj.put"
	ObjGet    Site = "obj.get"
	ObjDelete Site = "obj.delete"
	ObjList   Site = "obj.list"
	ObjExists Site = "obj.exists"
	// ObjVisibility is a lag site: Lag draws extra not-found reads for a
	// freshly written key (an eventual-consistency visibility spike).
	ObjVisibility Site = "obj.visibility"
	// ObjSelect guards the store-side compute endpoint (S3 Select-style
	// pushdown). A fault here models the store rejecting or aborting a
	// pushed-down plan; readers must fall back to a plain segment read.
	ObjSelect Site = "obj.select"

	// Block device I/O (internal/blockdev).
	DevRead  Site = "dev.read"
	DevWrite Site = "dev.write"
	// DevTornWrite is a lag site on the write path: a non-zero draw n
	// persists only the first n bytes of the write before failing.
	DevTornWrite Site = "dev.tornwrite"

	// Write-ahead log (internal/wal). Detail is the record-type name
	// ("alloc", "commit", ...), so rules can target one record kind.
	WALAppend Site = "wal.append"
	// WALTornTail persists a prefix of the frame (lag-drawn length) and
	// fails the append — the on-disk image a crash mid-fsync leaves.
	WALTornTail Site = "wal.torntail"

	// Object cache manager (internal/ocm): drop a queued write-back
	// upload as if the process died before it drained.
	OCMUploadDrop Site = "ocm.uploaddrop"

	// Coordinator<->writer RPCs (internal/multiplex and the simtest
	// cluster's closures). A fault on RPCNotify models a lost commit notification.
	// RPCProbe fails a health probe — a partition between the cluster
	// controller and the probed node, which can make a live coordinator
	// look dead and trigger a (fenced, therefore safe) failover.
	RPCAlloc   Site = "rpc.alloc"
	RPCNotify  Site = "rpc.notify"
	RPCRestart Site = "rpc.restart"
	RPCProbe   Site = "rpc.probe"

	// Cluster controller (internal/cluster). ClusterReconcile fails one
	// reconcile action before it executes (a controller-side transient:
	// the action is retried on a later round). ClusterPromote fails the
	// coordinator takeover between its phases — the new coordinator is
	// killed mid-promotion and a later round must finish the job.
	ClusterReconcile Site = "cluster.reconcile"
	ClusterPromote   Site = "cluster.promote"

	// Query scheduler (internal/sched). SchedAdmit drops an admission —
	// the query is rejected as if the admission queue overflowed (clients
	// must treat it like backpressure and retry). SchedStall is a lag site
	// drawn at dispatch: a non-zero draw stalls the assigned reader for
	// that many simulated milliseconds before the query runs. Detail is
	// the tenant name (admit) or the reader name (stall).
	SchedAdmit Site = "sched.admit"
	SchedStall Site = "sched.stall"

	// Delta-store compaction (internal/delta): checked once when a
	// compaction cycle picks up a table (detail is the table name) and
	// again immediately before the drained rows are swapped into the
	// columnar main (detail "swap:<table>"). A fault at either point
	// abandons the cycle with the delta rows still live — the crash-mid-
	// compact case the ingest lane must survive without losing or
	// duplicating rows.
	DeltaCompact Site = "delta.compact"
)

// With returns the site scoped to one detail value. Rules installed on the
// scoped site take precedence over rules on the bare site.
func (s Site) With(detail string) Site {
	return Site(string(s) + ":" + detail)
}

// base returns the PRNG-stream key: the site name without any detail scope.
func (s Site) base() Site {
	if i := strings.IndexByte(string(s), ':'); i >= 0 {
		return s[:i]
	}
	return s
}

// Event records one PRNG-visible decision: an injected fault or a lag draw.
type Event struct {
	Site   Site   // bare site
	Call   int    // 1-based call number at that site
	Detail string // detail passed to Check/Lag
	Kind   string // "fault" or "lag"
	Value  int    // lag value (0 for faults)
}

func (e Event) String() string {
	return fmt.Sprintf("%s#%d(%s)=%s:%d", e.Site, e.Call, e.Detail, e.Kind, e.Value)
}

type rule struct {
	prob    float64 // fail with this probability (0 = schedule-only)
	skip    int     // let this many more matching calls through first
	failN   int     // then fail this many (-1 = forever); 0 = no schedule
	lagLo   int     // Lag draws uniformly in [lagLo, lagHi]; both 0 = none
	lagHi   int
	hasLag  bool
	hasProb bool
}

// Plan is a deterministic fault schedule. The zero value and a nil *Plan
// are inert: every Check passes and every Lag is zero.
type Plan struct {
	mu      sync.Mutex
	seed    uint64
	rules   map[Site]*rule
	streams map[Site]*mt.Source // keyed by bare site
	calls   map[Site]int        // per bare site call counter
	events  []Event
	budget  int  // remaining injectable faults
	capped  bool // budget set at all
	faults  int  // total injected
}

// New returns a Plan whose entire fault sequence is determined by seed.
func New(seed uint64) *Plan {
	return &Plan{
		seed:    seed,
		rules:   make(map[Site]*rule),
		streams: make(map[Site]*mt.Source),
		calls:   make(map[Site]int),
	}
}

// Seed returns the seed the Plan was built with.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

func (p *Plan) stream(s Site) *mt.Source {
	b := s.base()
	src, ok := p.streams[b]
	if !ok {
		// Independent stream per site: offset the seed by a hash of the
		// site name so adding a rule at one site never shifts another
		// site's sequence.
		h := uint64(14695981039346656037) // FNV-1a over the site name
		for i := 0; i < len(b); i++ {
			h ^= uint64(b[i])
			h *= 1099511628211
		}
		src = mt.New(p.seed ^ mt.Hash64(h))
		p.streams[b] = src
	}
	return src
}

func (p *Plan) ensureRule(s Site) *rule {
	r, ok := p.rules[s]
	if !ok {
		r = &rule{}
		p.rules[s] = r
	}
	return r
}

// Always makes every matching call fail until Clear.
func (p *Plan) Always(s Site) *Plan { return p.FailAfter(s, 0, -1) }

// FailNext fails the next n matching calls, then lets calls through again.
func (p *Plan) FailNext(s Site, n int) *Plan { return p.FailAfter(s, 0, n) }

// FailAfter lets the next skip matching calls through, then fails the
// following n calls. n < 0 fails forever (a crash that never heals).
func (p *Plan) FailAfter(s Site, skip, n int) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.ensureRule(s)
	r.skip, r.failN = skip, n
	return p
}

// Prob makes each matching call fail independently with probability prob,
// drawn from the site's deterministic stream.
func (p *Plan) Prob(s Site, prob float64) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.ensureRule(s)
	r.prob, r.hasProb = prob, true
	return p
}

// Lag configures the site's lag draw: Lag(site, detail) returns a uniform
// value in [lo, hi]. Used for visibility spikes and torn-write lengths.
func (p *Plan) Lag(s Site, lo, hi int) *Plan {
	if p == nil {
		return nil
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.ensureRule(s)
	r.lagLo, r.lagHi, r.hasLag = lo, hi, true
	return p
}

// Clear removes any rule installed at exactly s (scoped rules are distinct
// from bare-site rules). Call counters and streams are preserved so the
// trace stays monotonic.
func (p *Plan) Clear(s Site) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.rules, s)
	return p
}

// SetBudget caps the total number of faults the Plan may inject across all
// sites. n < 0 removes the cap.
func (p *Plan) SetBudget(n int) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capped = n >= 0
	p.budget = n
	return p
}

// lookup finds the governing rule: detail-scoped first, then bare.
func (p *Plan) lookup(s Site, detail string) *rule {
	if detail != "" {
		if r, ok := p.rules[s.With(detail)]; ok {
			return r
		}
	}
	return p.rules[s]
}

// Check records a call at site s and returns ErrInjected (wrapped with the
// site and call number) if the Plan decides this call fails. Nil receiver,
// no rule, or exhausted budget all pass. detail scopes rule lookup and is
// recorded in the trace (an object key, a WAL record type, a node name).
func (p *Plan) Check(s Site, detail string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := s.base()
	p.calls[b]++
	call := p.calls[b]
	r := p.lookup(s, detail)
	if r == nil {
		return nil
	}
	inject := false
	switch {
	case r.failN != 0 && r.skip > 0:
		r.skip--
	case r.failN < 0:
		inject = true
	case r.failN > 0:
		inject = true
		r.failN--
	case r.hasProb && r.prob > 0:
		// One draw per governed call keeps the stream aligned with the
		// call sequence regardless of the probability value.
		u := float64(p.stream(s).Uint64()>>11) / (1 << 53)
		inject = u < r.prob
	}
	if !inject {
		return nil
	}
	if p.capped && p.budget <= 0 {
		return nil
	}
	if p.capped {
		p.budget--
	}
	p.faults++
	p.events = append(p.events, Event{Site: b, Call: call, Detail: detail, Kind: "fault"})
	return fmt.Errorf("%w at %s call %d (%s)", ErrInjected, b, call, detail)
}

// LagAt draws the site's configured lag for this call: 0 when no lag rule
// matches, otherwise uniform in [lo, hi]. Draws are recorded in the trace.
func (p *Plan) LagAt(s Site, detail string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := s.base()
	p.calls[b]++
	call := p.calls[b]
	r := p.lookup(s, detail)
	if r == nil || !r.hasLag {
		return 0
	}
	span := r.lagHi - r.lagLo + 1
	v := r.lagLo + int(p.stream(s).Uint64()%uint64(span))
	p.events = append(p.events, Event{Site: b, Call: call, Detail: detail, Kind: "lag", Value: v})
	return v
}

// Int draws a uniform value in [lo, hi] from the site's stream without
// consulting any rule — harness-side decisions (crash points) use it so
// they share the Plan's determinism.
func (p *Plan) Int(s Site, lo, hi int) int {
	if p == nil || hi < lo {
		return lo
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return lo + int(p.stream(s).Uint64()%uint64(hi-lo+1))
}

// Calls returns how many times site s (bare) has been checked.
func (p *Plan) Calls(s Site) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[s.base()]
}

// Injected returns the total number of faults injected so far.
func (p *Plan) Injected() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Events returns a copy of the ordered fault/lag trace.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// TraceString renders the event trace one event per line — convenient for
// same-seed determinism comparisons and failure reports.
func (p *Plan) TraceString() string {
	var sb strings.Builder
	for _, e := range p.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
