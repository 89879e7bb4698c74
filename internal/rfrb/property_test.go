package rfrb

import (
	"flag"
	"testing"

	"cloudiq/internal/mt"
)

var propSeed = flag.Uint64("prop-seed", 20260806, "base seed for property tests (reproduces a failing case)")

// genBitmap builds a bitmap from random add/remove operations spanning the
// block-key and cloud-key halves of the space, so merging, splitting and
// the CloudKeyBase boundary are all exercised.
func genBitmap(r *mt.Source) *Bitmap {
	b := &Bitmap{}
	ops := int(r.Uint64() % 60)
	for i := 0; i < ops; i++ {
		var base uint64
		if r.Uint64()%2 == 0 {
			base = CloudKeyBase - 64 // straddle the cloud boundary
		}
		start := base + r.Uint64()%4096
		length := r.Uint64()%128 + 1
		if r.Uint64()%5 == 0 {
			b.Remove(start, start+length)
		} else {
			b.Add(start, start+length)
		}
	}
	return b
}

// TestBitmapMarshalRoundTripProperty checks Marshal/Unmarshal over random
// bitmaps: the restored set must be element-identical and re-marshal to the
// same bytes. Failures report the reproducing seed.
func TestBitmapMarshalRoundTripProperty(t *testing.T) {
	r := mt.New(*propSeed)
	for iter := 0; iter < 300; iter++ {
		b := genBitmap(r)
		data := b.Marshal()
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("seed %d iter %d: unmarshal %s: %v (rerun with -prop-seed=%d)",
				*propSeed, iter, b, err, *propSeed)
		}
		if got.Count() != b.Count() {
			t.Fatalf("seed %d iter %d: count %d, want %d (rerun with -prop-seed=%d)",
				*propSeed, iter, got.Count(), b.Count(), *propSeed)
		}
		wr, gr := b.Ranges(), got.Ranges()
		if len(wr) != len(gr) {
			t.Fatalf("seed %d iter %d: %d ranges, want %d (rerun with -prop-seed=%d)",
				*propSeed, iter, len(gr), len(wr), *propSeed)
		}
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("seed %d iter %d: range %d = %v, want %v (rerun with -prop-seed=%d)",
					*propSeed, iter, i, gr[i], wr[i], *propSeed)
			}
		}
		redata := got.Marshal()
		if string(redata) != string(data) {
			t.Fatalf("seed %d iter %d: re-marshal differs from original image (rerun with -prop-seed=%d)",
				*propSeed, iter, *propSeed)
		}
		// Cloud/block partition must survive the trip — restart GC and
		// commit notifications depend on it.
		if len(got.CloudRanges()) != len(b.CloudRanges()) || len(got.BlockRanges()) != len(b.BlockRanges()) {
			t.Fatalf("seed %d iter %d: cloud/block partition changed across round-trip (rerun with -prop-seed=%d)",
				*propSeed, iter, *propSeed)
		}
	}
}

// TestUnionProperty checks the merge against its definition on random pairs:
// b.Union(o) must leave b with exactly the ranges that adding o's ranges to b
// one by one leaves, and must not touch o.
func TestUnionProperty(t *testing.T) {
	r := mt.New(*propSeed + 1)
	for iter := 0; iter < 300; iter++ {
		b, o := genBitmap(r), genBitmap(r)
		want := b.Clone()
		for _, rg := range o.Ranges() {
			want.AddRange(rg)
		}
		oBefore := o.String()
		got := b.Clone()
		got.Union(o)
		if got.String() != want.String() {
			t.Fatalf("seed %d iter %d: %s ∪ %s = %s, want %s (rerun with -prop-seed=%d)",
				*propSeed, iter, b, o, got, want, *propSeed)
		}
		if o.String() != oBefore {
			t.Fatalf("seed %d iter %d: Union changed its argument %s to %s", *propSeed, iter, oBefore, o)
		}
		self := b.Clone()
		self.Union(self)
		if self.String() != b.String() {
			t.Fatalf("seed %d iter %d: %s ∪ itself = %s", *propSeed, iter, b, self)
		}
	}
}

// TestBitmapUnmarshalRejectsCorrupt flips one byte at every offset of a
// marshaled image; Unmarshal must either reject it or return a structurally
// valid bitmap (sorted, disjoint, non-empty ranges) — never panic or
// produce overlapping ranges.
func TestBitmapUnmarshalRejectsCorrupt(t *testing.T) {
	b := &Bitmap{}
	b.Add(10, 20)
	b.Add(100, 130)
	b.Add(CloudKeyBase, CloudKeyBase+5)
	img := b.Marshal()
	for off := 0; off < len(img); off++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), img...)
			mut[off] ^= flip
			got, err := Unmarshal(mut)
			if err != nil {
				continue
			}
			prev := uint64(0)
			for i, r := range got.Ranges() {
				if r.Start >= r.End || (i > 0 && r.Start < prev) {
					t.Fatalf("offset %d flip %#x: accepted structurally invalid bitmap %s", off, flip, got)
				}
				prev = r.End
			}
		}
	}
}
