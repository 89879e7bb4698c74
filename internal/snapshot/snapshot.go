// Package snapshot implements the snapshot manager of §5. Instead of being
// deleted when their version expires, pages on object stores are handed to
// the snapshot manager, which retains them for a configurable retention
// period and deletes them in the background when it ends. Because every page
// a past catalog references is therefore still present, taking a snapshot
// reduces to backing up the (small) snapshot-manager metadata, the catalog
// and the system dbspace — near-instantaneous — and point-in-time restore
// reduces to restoring those, plus garbage collecting the keys allocated
// after the snapshot (computable thanks to key monotonicity).
package snapshot

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
	"cloudiq/internal/rfrb"
)

// ErrNotFound is returned when restoring an unknown or expired snapshot.
var ErrNotFound = errors.New("snapshot: not found")

// ReclaimFunc physically deletes an extent on a dbspace.
type ReclaimFunc func(ctx context.Context, space string, r rfrb.Range) error

// Config parameterizes a Manager.
type Config struct {
	// Store holds the manager's metadata and snapshot images.
	Store objstore.Store
	// Retention is how long retired pages (and snapshots) are kept, in the
	// units of Now.
	Retention int64
	// Now is the logical clock. Experiments drive it with simulated time.
	Now func() int64
	// Reclaim deletes expired extents. Required.
	Reclaim ReclaimFunc
}

// record is one retired extent awaiting expiry.
type record struct {
	Space  string
	Range  rfrb.Range
	Expiry int64
}

// SnapInfo describes one stored snapshot.
type SnapInfo struct {
	ID     uint64
	Taken  int64
	Expiry int64
	MaxKey uint64 // key-generator high-water mark at snapshot time
}

// state is the gob-persisted manager state.
type state struct {
	Records []record // FIFO: ascending expiry
	Snaps   []SnapInfo
	NextID  uint64
	MetaSeq uint64
}

// metaReadAttempts bounds the retry-until-found window eventual consistency
// may impose on freshly written metadata keys (never written twice, like data
// pages).
const metaReadAttempts = 10

// metaPrefix namespaces the manager's keys in its store.
const metaPrefix = "snapmgr/"

// Manager is the snapshot manager. It is safe for concurrent use. All store
// I/O except listing flows through pipe, whose retry stage owns the §3
// retry-until-found discipline.
type Manager struct {
	cfg  Config
	pipe pageio.Handler

	mu sync.Mutex
	st state
}

// New returns a Manager. Call Load to resume persisted state.
func New(cfg Config) (*Manager, error) {
	if cfg.Store == nil || cfg.Reclaim == nil || cfg.Now == nil {
		return nil, fmt.Errorf("snapshot: store, reclaim and clock are required")
	}
	pipe := pageio.Chain(
		pageio.NewStore(cfg.Store, nil),
		pageio.Retry(pageio.Policy{ReadAttempts: metaReadAttempts}),
	)
	return &Manager{cfg: cfg, pipe: pipe}, nil
}

// Retire takes ownership of an expired page-version extent: instead of
// deleting it, the extent joins the FIFO retention list. Plug this into the
// transaction manager with SetRetire. Extents on conventional dbspaces are
// reclaimed immediately (retention applies to cloud pages; the system
// dbspace is covered by the full backup a snapshot takes).
func (m *Manager) Retire(ctx context.Context, space string, r rfrb.Range) error {
	if !rfrb.IsCloudKey(r.Start) {
		return m.cfg.Reclaim(ctx, space, r)
	}
	m.mu.Lock()
	m.st.Records = append(m.st.Records, record{Space: space, Range: r, Expiry: m.cfg.Now() + m.cfg.Retention})
	m.mu.Unlock()
	return m.persist(ctx)
}

// Pending reports the extents currently owned by the manager.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.st.Records)
}

// Extent is one retired page-version extent awaiting its retention expiry.
type Extent struct {
	Space string
	Range rfrb.Range
}

// PendingExtents returns the extents currently owned by the manager, in
// retirement order. Simulation oracles use it to tell legitimately retained
// pages apart from leaked ones when auditing the store against the set of
// reachable keys.
func (m *Manager) PendingExtents() []Extent {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Extent, len(m.st.Records))
	for i, r := range m.st.Records {
		out[i] = Extent{Space: r.Space, Range: r.Range}
	}
	return out
}

// Unretire removes live keys from one dbspace's retention records: a
// point-in-time restore can make retired page versions reachable again, and
// leaving them on the records would delete live data when their retention
// ends. Records are split around the removed keys (the expiry is inherited);
// emptied records vanish. The pruned state is persisted.
func (m *Manager) Unretire(ctx context.Context, space string, live *rfrb.Bitmap) error {
	m.mu.Lock()
	var out []record
	changed := false
	for _, rec := range m.st.Records {
		if rec.Space != space {
			out = append(out, rec)
			continue
		}
		b := &rfrb.Bitmap{}
		b.AddRange(rec.Range)
		for _, lr := range live.Ranges() {
			b.Remove(lr.Start, lr.End)
		}
		rs := b.Ranges()
		if len(rs) == 1 && rs[0] == rec.Range {
			out = append(out, rec)
			continue
		}
		changed = true
		for _, r := range rs {
			out = append(out, record{Space: rec.Space, Range: r, Expiry: rec.Expiry})
		}
	}
	if changed {
		m.st.Records = out
	}
	m.mu.Unlock()
	if !changed {
		return nil
	}
	return m.persist(ctx)
}

// Retained returns the union of this dbspace's retention records as a
// bitmap.
func (m *Manager) Retained(space string) *rfrb.Bitmap {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := &rfrb.Bitmap{}
	for _, rec := range m.st.Records {
		if rec.Space == space {
			b.AddRange(rec.Range)
		}
	}
	return b
}

// Expire permanently deletes every record and snapshot whose retention has
// ended, returning the number of extents reclaimed. It is the background
// deletion process of §5.
func (m *Manager) Expire(ctx context.Context) (int, error) {
	now := m.cfg.Now()
	m.mu.Lock()
	var due []record
	var keep []record
	for _, r := range m.st.Records {
		if r.Expiry <= now {
			due = append(due, r)
		} else {
			keep = append(keep, r)
		}
	}
	m.st.Records = keep
	var expiredSnaps []SnapInfo
	var keepSnaps []SnapInfo
	for _, s := range m.st.Snaps {
		if s.Expiry <= now {
			expiredSnaps = append(expiredSnaps, s)
		} else {
			keepSnaps = append(keepSnaps, s)
		}
	}
	m.st.Snaps = keepSnaps
	m.mu.Unlock()

	for _, r := range due {
		if err := m.cfg.Reclaim(ctx, r.Space, r.Range); err != nil {
			// Re-own the extent so a later pass retries.
			m.mu.Lock()
			m.st.Records = append(m.st.Records, r)
			m.mu.Unlock()
			return 0, fmt.Errorf("snapshot: expire %v on %s: %w", r.Range, r.Space, err)
		}
	}
	for _, s := range expiredSnaps {
		if err := m.pipe.Delete(ctx, pageio.Ref{Key: m.snapKey(s.ID)}); err != nil {
			return 0, fmt.Errorf("snapshot: delete snapshot %d: %w", s.ID, err)
		}
	}
	if err := m.persist(ctx); err != nil {
		return 0, err
	}
	return len(due), nil
}

// image is the gob-encoded content of one snapshot.
type image struct {
	Info    SnapInfo
	Catalog []byte // catalog backup
	System  []byte // system dbspace / checkpoint backup
}

func (m *Manager) snapKey(id uint64) string {
	return fmt.Sprintf("%ssnap-%016d", metaPrefix, id)
}

// Snapshot stores a near-instantaneous snapshot: the catalog image, the
// system backup and the current maximum allocated key. No cloud dbspace
// data is copied (§5).
func (m *Manager) Snapshot(ctx context.Context, catalogImage, systemBackup []byte, maxKey uint64) (SnapInfo, error) {
	now := m.cfg.Now()
	m.mu.Lock()
	m.st.NextID++
	info := SnapInfo{ID: m.st.NextID, Taken: now, Expiry: now + m.cfg.Retention, MaxKey: maxKey}
	m.st.Snaps = append(m.st.Snaps, info)
	m.mu.Unlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(image{Info: info, Catalog: catalogImage, System: systemBackup}); err != nil {
		return SnapInfo{}, fmt.Errorf("snapshot: encode: %w", err)
	}
	if err := m.pipe.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Key: m.snapKey(info.ID)}, Data: buf.Bytes()}); err != nil {
		return SnapInfo{}, fmt.Errorf("snapshot: store snapshot %d: %w", info.ID, err)
	}
	if err := m.persist(ctx); err != nil {
		return SnapInfo{}, err
	}
	return info, nil
}

// Snapshots lists stored snapshots, ascending by id.
func (m *Manager) Snapshots() []SnapInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]SnapInfo(nil), m.st.Snaps...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Restore fetches a snapshot's catalog and system backups. The caller
// restores them and then garbage collects keys in (info.MaxKey, currentMax]
// — see PostRestoreRange.
func (m *Manager) Restore(ctx context.Context, id uint64) (SnapInfo, []byte, []byte, error) {
	data, err := m.pipe.ReadPage(ctx, pageio.Ref{Key: m.snapKey(id)})
	if err != nil {
		if errors.Is(err, objstore.ErrNotFound) {
			return SnapInfo{}, nil, nil, fmt.Errorf("snapshot %d: %w", id, ErrNotFound)
		}
		return SnapInfo{}, nil, nil, fmt.Errorf("snapshot: fetch %d: %w", id, err)
	}
	var img image
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return SnapInfo{}, nil, nil, fmt.Errorf("snapshot: decode %d: %w", id, err)
	}
	return img.Info, img.Catalog, img.System, nil
}

// PostRestoreRange computes the keys to garbage collect after restoring a
// snapshot: everything allocated after the snapshot was taken. Key
// monotonicity makes this a single range (§5).
func PostRestoreRange(snapshotMaxKey, currentMaxKey uint64) rfrb.Range {
	return rfrb.Range{Start: snapshotMaxKey, End: currentMaxKey}
}

// --- metadata persistence (stored on the object store, like user data) ---

func (m *Manager) metaKey(seq uint64) string {
	return fmt.Sprintf("%smeta-%016d", metaPrefix, seq)
}

// persist writes the manager state under a fresh (never rewritten) key and
// removes the previous image.
func (m *Manager) persist(ctx context.Context) error {
	m.mu.Lock()
	m.st.MetaSeq++
	seq := m.st.MetaSeq
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(m.st)
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}
	if err := m.pipe.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Key: m.metaKey(seq)}, Data: buf.Bytes()}); err != nil {
		return fmt.Errorf("snapshot: persist meta: %w", err)
	}
	if seq > 1 {
		if err := m.pipe.Delete(ctx, pageio.Ref{Key: m.metaKey(seq - 1)}); err != nil {
			return fmt.Errorf("snapshot: prune old meta: %w", err)
		}
	}
	return nil
}

// Load restores the manager state from the most recent persisted image; a
// missing image leaves the manager empty.
//
// Listing an object store is eventually consistent: a meta image persisted
// just before a crash may not appear in a single listing yet. Trusting one
// listing can resurrect a stale sequence number — after which the next
// persist would rewrite an existing key (breaking never-write-twice and the
// snapshot-id sequence) — or miss the state entirely, silently dropping
// every snapshot. The same retry-until-found discipline §3 applies to data
// pages applies to listings: a key a listing omits is only *transiently*
// hidden (deleted keys never resurface), so Load lists the prefix
// metaReadAttempts times and takes the maximum sequence seen across the
// budget. Probing key-by-key instead would not work: persist prunes seq-1,
// so sequences between a stale listing and the true head are permanent
// holes.
func (m *Manager) Load(ctx context.Context) error {
	var maxSeq uint64
	for i := 0; i < metaReadAttempts; i++ {
		keys, err := m.cfg.Store.List(ctx, metaPrefix+"meta-")
		if err != nil {
			return fmt.Errorf("snapshot: list meta: %w", err)
		}
		if len(keys) == 0 {
			continue
		}
		latest := keys[len(keys)-1] // keys sort ascending; fixed-width seq
		n, err := strconv.ParseUint(strings.TrimPrefix(latest, metaPrefix+"meta-"), 10, 64)
		if err != nil {
			return fmt.Errorf("snapshot: malformed meta key %s: %w", latest, err)
		}
		if n > maxSeq {
			maxSeq = n
		}
	}
	if maxSeq == 0 {
		return nil
	}
	data, err := m.pipe.ReadPage(ctx, pageio.Ref{Key: m.metaKey(maxSeq)})
	if err != nil {
		return fmt.Errorf("snapshot: load meta %d: %w", maxSeq, err)
	}
	var st state
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("snapshot: decode meta: %w", err)
	}
	m.mu.Lock()
	m.st = st
	m.mu.Unlock()
	return nil
}
