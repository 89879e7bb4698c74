package catalog

import (
	"reflect"
	"testing"

	"cloudiq/internal/core"
	"cloudiq/internal/rfrb"
)

func ident(key uint64) core.Identity {
	return core.Identity{Root: core.Entry{Loc: rfrb.CloudKeyBase + key, Size: 1}, Fanout: 4}
}

func TestPublishAndSnapshotVisibility(t *testing.T) {
	c := New()
	if err := c.Publish("lineitem", ident(1), 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("lineitem", ident(2), 9); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("lineitem", 4); ok {
		t.Fatal("visible before first publish")
	}
	if id, ok := c.Lookup("lineitem", 5); !ok || id != ident(1) {
		t.Fatalf("at 5: %v %v", id, ok)
	}
	if id, ok := c.Lookup("lineitem", 8); !ok || id != ident(1) {
		t.Fatalf("at 8: %v %v", id, ok)
	}
	if id, ok := c.Lookup("lineitem", 100); !ok || id != ident(2) {
		t.Fatalf("at 100: %v %v", id, ok)
	}
	if _, ok := c.Lookup("ghost", 100); ok {
		t.Fatal("unknown object visible")
	}
}

func TestPublishOutOfOrderRejected(t *testing.T) {
	c := New()
	_ = c.Publish("t", ident(1), 10)
	if err := c.Publish("t", ident(2), 9); err == nil {
		t.Fatal("out-of-order publish accepted")
	}
}

func TestDrop(t *testing.T) {
	c := New()
	_ = c.Publish("t", ident(1), 1)
	if err := c.Drop("t", 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("t", 3); !ok {
		t.Fatal("pre-drop snapshot lost visibility")
	}
	if _, ok := c.Lookup("t", 5); ok {
		t.Fatal("visible at drop seq")
	}
	if err := c.Drop("nope", 9); err == nil {
		t.Fatal("drop of unknown accepted")
	}
	if err := c.Drop("t", 2); err == nil {
		t.Fatal("out-of-order drop accepted")
	}
}

func TestNames(t *testing.T) {
	c := New()
	_ = c.Publish("b", ident(1), 1)
	_ = c.Publish("a", ident(2), 3)
	_ = c.Drop("b", 4)
	if got := c.Names(2); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Names(2) = %v", got)
	}
	if got := c.Names(3); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names(3) = %v", got)
	}
	if got := c.Names(10); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Names(10) = %v", got)
	}
}

func TestPrune(t *testing.T) {
	c := New()
	_ = c.Publish("t", ident(1), 1)
	_ = c.Publish("t", ident(2), 5)
	_ = c.Publish("t", ident(3), 9)
	c.Prune(6) // versions visible at >= 6: seq 5 and 9
	if got := c.VersionCount("t"); got != 2 {
		t.Fatalf("versions after prune = %d", got)
	}
	if id, ok := c.Lookup("t", 7); !ok || id != ident(2) {
		t.Fatalf("Lookup(7) after prune = %v %v", id, ok)
	}
	// Pruning past a drop removes the object entirely.
	_ = c.Drop("t", 12)
	c.Prune(20)
	if got := c.VersionCount("t"); got != 0 {
		t.Fatalf("versions after drop+prune = %d", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := New()
	_ = c.Publish("x", ident(7), 2)
	_ = c.Publish("y", ident(8), 3)
	_ = c.Drop("y", 4)
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := got.Lookup("x", 5); !ok || id != ident(7) {
		t.Fatalf("restored x = %v %v", id, ok)
	}
	if _, ok := got.Lookup("y", 5); ok {
		t.Fatal("restored y visible after drop")
	}
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzCatalogUnmarshal: whatever bytes recovery finds as the checkpointed
// catalog, Unmarshal returns an error or a catalog that answers Names,
// Lookup and Marshal, never a panic or an out-of-memory. Seeds are the
// images a real catalog marshals to.
func FuzzCatalogUnmarshal(f *testing.F) {
	c := New()
	for i, name := range []string{"lineitem", "orders", "nation"} {
		if err := c.Publish(name, ident(uint64(i)), uint64(i+1)); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Drop("orders", 7); err != nil {
		f.Fatal(err)
	}
	for _, cat := range []*Catalog{New(), c} {
		img, err := cat.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Unmarshal(data)
		if err != nil {
			return
		}
		for _, snap := range []uint64{0, 1, 5, ^uint64(0)} {
			for _, name := range c.Names(snap) {
				if _, ok := c.Lookup(name, snap); !ok {
					t.Fatalf("Names(%d) lists %q, Lookup misses it", snap, name)
				}
			}
		}
		if _, err := c.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
}
