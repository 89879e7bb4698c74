package snapshot

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
)

func ctxb() context.Context { return context.Background() }

type rig struct {
	store     *objstore.MemStore
	mgr       *Manager
	now       int64
	reclaimed []string
	failNext  bool
}

func newRig(t testing.TB, retention int64) *rig {
	t.Helper()
	r := &rig{store: objstore.NewMem(objstore.Config{})}
	var err error
	r.mgr, err = New(Config{
		Store:     r.store,
		Retention: retention,
		Now:       func() int64 { return r.now },
		Reclaim: func(ctx context.Context, space string, rng rfrb.Range) error {
			if r.failNext {
				r.failNext = false
				return errors.New("transient")
			}
			r.reclaimed = append(r.reclaimed, fmt.Sprintf("%s:%d-%d", space, rng.Start, rng.End))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func cloudRange(lo, n uint64) rfrb.Range {
	return rfrb.Range{Start: rfrb.CloudKeyBase + lo, End: rfrb.CloudKeyBase + lo + n}
}

func TestRetireDefersDeletionUntilRetentionEnds(t *testing.T) {
	r := newRig(t, 100)
	if err := r.mgr.Retire(ctxb(), "user", cloudRange(0, 10)); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Pending() != 1 || len(r.reclaimed) != 0 {
		t.Fatalf("pending %d reclaimed %v", r.mgr.Pending(), r.reclaimed)
	}
	r.now = 50
	if n, err := r.mgr.Expire(ctxb()); err != nil || n != 0 {
		t.Fatalf("early expire = %d, %v", n, err)
	}
	r.now = 100
	n, err := r.mgr.Expire(ctxb())
	if err != nil || n != 1 {
		t.Fatalf("expire = %d, %v", n, err)
	}
	if r.mgr.Pending() != 0 || len(r.reclaimed) != 1 {
		t.Fatalf("pending %d reclaimed %v", r.mgr.Pending(), r.reclaimed)
	}
}

func TestRetireConventionalExtentsImmediately(t *testing.T) {
	r := newRig(t, 100)
	if err := r.mgr.Retire(ctxb(), "main", rfrb.Range{Start: 10, End: 20}); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Pending() != 0 || len(r.reclaimed) != 1 {
		t.Fatalf("block extent not reclaimed immediately: %v", r.reclaimed)
	}
}

func TestExpireFailureRetainsRecord(t *testing.T) {
	r := newRig(t, 10)
	_ = r.mgr.Retire(ctxb(), "user", cloudRange(0, 5))
	r.now = 20
	r.failNext = true
	if _, err := r.mgr.Expire(ctxb()); err == nil {
		t.Fatal("expire error not surfaced")
	}
	if r.mgr.Pending() != 1 {
		t.Fatal("record lost after failed reclaim")
	}
	if n, err := r.mgr.Expire(ctxb()); err != nil || n != 1 {
		t.Fatalf("retry expire = %d, %v", n, err)
	}
}

func TestSnapshotAndRestore(t *testing.T) {
	r := newRig(t, 100)
	info, err := r.mgr.Snapshot(ctxb(), []byte("catalog-v1"), []byte("system-v1"), rfrb.CloudKeyBase+500)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != 1 || info.MaxKey != rfrb.CloudKeyBase+500 {
		t.Fatalf("info = %+v", info)
	}
	got, cat, sys, err := r.mgr.Restore(ctxb(), info.ID)
	if err != nil || string(cat) != "catalog-v1" || string(sys) != "system-v1" || got.ID != 1 {
		t.Fatalf("restore = %+v %q %q %v", got, cat, sys, err)
	}
	if _, _, _, err := r.mgr.Restore(ctxb(), 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing snapshot err = %v", err)
	}
	if snaps := r.mgr.Snapshots(); len(snaps) != 1 || snaps[0].ID != 1 {
		t.Fatalf("Snapshots = %v", snaps)
	}
}

func TestSnapshotExpiry(t *testing.T) {
	r := newRig(t, 50)
	info, _ := r.mgr.Snapshot(ctxb(), []byte("c"), []byte("s"), rfrb.CloudKeyBase)
	r.now = 60
	if _, err := r.mgr.Expire(ctxb()); err != nil {
		t.Fatal(err)
	}
	if len(r.mgr.Snapshots()) != 0 {
		t.Fatal("expired snapshot still listed")
	}
	if _, _, _, err := r.mgr.Restore(ctxb(), info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of expired snapshot err = %v", err)
	}
}

func TestPointInTimeRestoreWindow(t *testing.T) {
	// A page retired after a snapshot remains available through the
	// snapshot's whole retention window.
	r := newRig(t, 100)
	_, _ = r.mgr.Snapshot(ctxb(), []byte("c"), []byte("s"), rfrb.CloudKeyBase+10)
	r.now = 40
	_ = r.mgr.Retire(ctxb(), "user", cloudRange(0, 10)) // expiry 140
	r.now = 99                                          // snapshot still within retention
	_, _ = r.mgr.Expire(ctxb())
	if r.mgr.Pending() != 1 {
		t.Fatal("retired pages deleted while a covering snapshot is live")
	}
}

func TestPostRestoreRange(t *testing.T) {
	r := PostRestoreRange(rfrb.CloudKeyBase+100, rfrb.CloudKeyBase+250)
	if r.Start != rfrb.CloudKeyBase+100 || r.End != rfrb.CloudKeyBase+250 {
		t.Fatalf("range = %v", r)
	}
	if PostRestoreRange(5, 5).Len() != 0 {
		t.Fatal("no-op restore range not empty")
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	r := newRig(t, 100)
	_ = r.mgr.Retire(ctxb(), "user", cloudRange(0, 10))
	_, _ = r.mgr.Snapshot(ctxb(), []byte("c"), []byte("s"), rfrb.CloudKeyBase+7)

	// "Restart": new manager over the same store.
	m2, err := New(Config{
		Store:     r.store,
		Retention: 100,
		Now:       func() int64 { return r.now },
		Reclaim: func(ctx context.Context, space string, rng rfrb.Range) error {
			r.reclaimed = append(r.reclaimed, space)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(ctxb()); err != nil {
		t.Fatal(err)
	}
	if m2.Pending() != 1 || len(m2.Snapshots()) != 1 {
		t.Fatalf("restored: pending %d snaps %d", m2.Pending(), len(m2.Snapshots()))
	}
	// Exactly one live metadata object remains (old images pruned).
	keys, _ := r.store.List(ctxb(), "snapmgr/meta-")
	if len(keys) != 1 {
		t.Fatalf("meta objects = %v", keys)
	}
	// New snapshot ids continue after the restored counter.
	info, _ := m2.Snapshot(ctxb(), nil, nil, 0)
	if info.ID != 2 {
		t.Fatalf("post-restart snapshot id = %d", info.ID)
	}
}

func TestLoadEmptyStore(t *testing.T) {
	r := newRig(t, 10)
	if err := r.mgr.Load(ctxb()); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Pending() != 0 {
		t.Fatal("empty load produced records")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// Regression for simulation seed 2: Load used to trust a single listing of
// the meta prefix, but listings are eventually consistent — a freshly
// persisted meta object can stay hidden for several List calls while the
// superseded sequence numbers have already been deleted (permanent holes, so
// probing forward from a stale head can never recover). A stale listing
// regressed MetaSeq and NextID, which rewrote the meta head and reused
// snapshot image keys. Load must list repeatedly and take the newest
// sequence it ever observes.
func TestLoadSeesLatestMetaThroughStaleListings(t *testing.T) {
	store := objstore.NewMem(objstore.Config{Consistency: objstore.Consistency{NewKeyMissReads: 3}})
	now := int64(0)
	mk := func() *Manager {
		m, err := New(Config{
			Store:     store,
			Retention: 100,
			Now:       func() int64 { return now },
			Reclaim:   func(context.Context, string, rfrb.Range) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := mk()
	// Three persists: meta-1 and meta-2 are written and then deleted, only
	// meta-3 survives — and it is still inside its visibility window.
	for i := uint64(0); i < 3; i++ {
		if err := first.Retire(ctxb(), "user", cloudRange(i*10, 5)); err != nil {
			t.Fatal(err)
		}
	}
	second := mk()
	if err := second.Load(ctxb()); err != nil {
		t.Fatal(err)
	}
	if got := second.Pending(); got != 3 {
		t.Fatalf("recovered %d pending retirements, want 3 (Load read a stale listing)", got)
	}
}

// FuzzSnapshotMeta: whatever bytes sit in the store as the newest metadata
// image and as a snapshot image, Load and Restore return an error or a
// decoded value, never a panic or an out-of-memory. Seeds are the images a
// real snapshot and persist write.
func FuzzSnapshotMeta(f *testing.F) {
	seed := newRig(f, 100)
	if err := seed.mgr.Retire(ctxb(), "user", cloudRange(0, 10)); err != nil {
		f.Fatal(err)
	}
	if _, err := seed.mgr.Snapshot(ctxb(), []byte("catalog"), []byte("system"), 42); err != nil {
		f.Fatal(err)
	}
	keys, err := seed.store.List(ctxb(), metaPrefix)
	if err != nil || len(keys) != 2 {
		f.Fatalf("seed images %v: %v", keys, err)
	}
	for _, k := range keys {
		data, err := seed.store.Get(ctxb(), k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t, 100)
		// An older, valid image under the fuzzed one: Load must pick the
		// newest and judge it alone.
		if err := r.mgr.persist(ctxb()); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{r.mgr.metaKey(7), r.mgr.snapKey(1)} {
			if err := r.store.Put(ctxb(), k, data); err != nil {
				t.Fatal(err)
			}
		}
		_ = r.mgr.Load(ctxb())
		_, _, _, _ = r.mgr.Restore(ctxb(), 1)
	})
}
