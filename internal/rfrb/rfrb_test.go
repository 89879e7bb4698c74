package rfrb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndContains(t *testing.T) {
	var b Bitmap
	b.Add(10, 20)
	b.AddKey(5)
	for _, v := range []uint64{5, 10, 15, 19} {
		if !b.Contains(v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	for _, v := range []uint64{4, 6, 9, 20, 100} {
		if b.Contains(v) {
			t.Fatalf("Contains(%d) = true", v)
		}
	}
	if got := b.Count(); got != 11 {
		t.Fatalf("Count = %d, want 11", got)
	}
}

func TestCoalescing(t *testing.T) {
	var b Bitmap
	b.Add(10, 20)
	b.Add(20, 30) // adjacent: must merge
	if got := len(b.Ranges()); got != 1 {
		t.Fatalf("ranges = %v, want one merged range", b.Ranges())
	}
	b.Add(5, 15) // overlapping from the left
	r := b.Ranges()
	if len(r) != 1 || r[0] != (Range{5, 30}) {
		t.Fatalf("ranges = %v, want [{5 30}]", r)
	}
	b.Add(40, 50)
	b.Add(28, 45) // bridges the gap
	r = b.Ranges()
	if len(r) != 1 || r[0] != (Range{5, 50}) {
		t.Fatalf("ranges = %v, want [{5 50}]", r)
	}
}

func TestAddEmptyRangeIgnored(t *testing.T) {
	var b Bitmap
	b.Add(10, 10)
	b.Add(10, 5)
	if !b.Empty() {
		t.Fatalf("empty adds produced %v", b.Ranges())
	}
}

func TestRemove(t *testing.T) {
	var b Bitmap
	b.Add(10, 30)
	b.Remove(15, 20) // punch a hole
	r := b.Ranges()
	if len(r) != 2 || r[0] != (Range{10, 15}) || r[1] != (Range{20, 30}) {
		t.Fatalf("ranges = %v", r)
	}
	b.Remove(0, 100)
	if !b.Empty() {
		t.Fatalf("Remove(all) left %v", b.Ranges())
	}
	b.Remove(1, 2) // removing from empty is a no-op
}

func TestCloudAndBlockSplit(t *testing.T) {
	var b Bitmap
	b.Add(100, 200)                         // block run
	b.Add(CloudKeyBase+10, CloudKeyBase+20) // cloud keys
	b.Add(CloudKeyBase-5, CloudKeyBase+5)   // straddles the boundary
	if got := len(b.CloudRanges()); got != 2 {
		t.Fatalf("CloudRanges = %v", b.CloudRanges())
	}
	for _, r := range b.CloudRanges() {
		if r.Start < CloudKeyBase {
			t.Fatalf("cloud range %v starts below the base", r)
		}
	}
	for _, r := range b.BlockRanges() {
		if r.End > CloudKeyBase {
			t.Fatalf("block range %v ends above the base", r)
		}
	}
	var total uint64
	for _, r := range append(b.CloudRanges(), b.BlockRanges()...) {
		total += r.Len()
	}
	if total != b.Count() {
		t.Fatalf("split ranges cover %d values, bitmap has %d", total, b.Count())
	}
}

func TestIsCloudKey(t *testing.T) {
	if IsCloudKey(CloudKeyBase - 1) {
		t.Fatal("below base classified as cloud")
	}
	if !IsCloudKey(CloudKeyBase) {
		t.Fatal("base not classified as cloud")
	}
	if !IsCloudKey(^uint64(0)) {
		t.Fatal("max key not classified as cloud")
	}
}

func TestUnionAndClone(t *testing.T) {
	var a, b Bitmap
	a.Add(1, 5)
	b.Add(3, 10)
	b.Add(20, 25)
	c := a.Clone()
	a.Union(&b)
	if got := a.Count(); got != 9+5 {
		t.Fatalf("union count = %d, want 14", got)
	}
	if got := c.Count(); got != 4 {
		t.Fatalf("clone mutated by union: count = %d, want 4", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	var b Bitmap
	b.Add(1, 5)
	b.Add(100, 130)
	b.Add(CloudKeyBase+1000, CloudKeyBase+2000)
	got, err := Unmarshal(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != b.String() {
		t.Fatalf("round trip: got %s, want %s", got, &b)
	}
	empty, err := Unmarshal((&Bitmap{}).Marshal())
	if err != nil || !empty.Empty() {
		t.Fatalf("empty round trip: %v, %v", empty, err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte{1}); err == nil {
		t.Fatal("short buffer accepted")
	}
	var b Bitmap
	b.Add(10, 20)
	img := b.Marshal()
	if _, err := Unmarshal(img[:12]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	// Swap start/end to make an invalid range.
	copy(img[8:16], []byte{20, 0, 0, 0, 0, 0, 0, 0})
	copy(img[16:24], []byte{10, 0, 0, 0, 0, 0, 0, 0})
	if _, err := Unmarshal(img); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestString(t *testing.T) {
	var b Bitmap
	b.AddKey(7)
	b.Add(10, 13)
	if got, want := b.String(), "{7 10-12}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestPropertyMatchesReferenceSet(t *testing.T) {
	// Compare against a plain map-based set under a random operation mix.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		var b Bitmap
		ref := make(map[uint64]bool)
		for op := 0; op < 200; op++ {
			start := uint64(rnd.Intn(500))
			n := uint64(rnd.Intn(20))
			if rnd.Intn(3) == 0 {
				b.Remove(start, start+n)
				for v := start; v < start+n; v++ {
					delete(ref, v)
				}
			} else {
				b.Add(start, start+n)
				for v := start; v < start+n; v++ {
					ref[v] = true
				}
			}
		}
		if b.Count() != uint64(len(ref)) {
			return false
		}
		for v := uint64(0); v < 520; v++ {
			if b.Contains(v) != ref[v] {
				return false
			}
		}
		// Ranges must be sorted, non-empty, non-adjacent.
		rs := b.Ranges()
		for i, r := range rs {
			if r.Start >= r.End {
				return false
			}
			if i > 0 && rs[i-1].End >= r.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMarshalRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		var b Bitmap
		for _, v := range vals {
			b.Add(v, v+uint64(v%7)+1)
		}
		got, err := Unmarshal(b.Marshal())
		return err == nil && got.String() == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
