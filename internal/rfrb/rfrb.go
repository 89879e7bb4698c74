// Package rfrb implements the roll-forward/roll-back (RF/RB) bitmaps of
// §3.3. Each transaction owns a pair: the RB bitmap records pages the
// transaction allocated, the RF bitmap records pages it marked for deletion.
// One data structure records both representations the paper describes —
// ranges of physical block numbers (below 2^48) and cloud object keys (in
// [2^63, 2^64)) — distinguished purely by the numeric range a bit falls in.
// Because the key generator hands out monotonically increasing ranges, cloud
// entries compress to intervals, the space/performance optimization §3.2
// calls out.
package rfrb

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// CloudKeyBase is the first value of the reserved cloud-key range
// [2^63, 2^64). Values below are physical block numbers.
const CloudKeyBase uint64 = 1 << 63

// IsCloudKey reports whether v falls in the reserved cloud-key range.
func IsCloudKey(v uint64) bool { return v >= CloudKeyBase }

// Range is a half-open interval [Start, End).
type Range struct {
	Start, End uint64
}

// Len returns the number of values in the range.
func (r Range) Len() uint64 { return r.End - r.Start }

// Bitmap is a sparse set of uint64 values stored as sorted, coalesced,
// non-overlapping ranges. The zero value is an empty bitmap. Bitmap is not
// safe for concurrent mutation; each transaction owns its own pair.
type Bitmap struct {
	ranges []Range
}

// Add inserts the half-open interval [start, end), merging with neighbours.
func (b *Bitmap) Add(start, end uint64) {
	if start >= end {
		return
	}
	i := sort.Search(len(b.ranges), func(i int) bool { return b.ranges[i].End >= start })
	j := i
	for j < len(b.ranges) && b.ranges[j].Start <= end {
		if b.ranges[j].Start < start {
			start = b.ranges[j].Start
		}
		if b.ranges[j].End > end {
			end = b.ranges[j].End
		}
		j++
	}
	merged := append(b.ranges[:i:i], Range{start, end})
	b.ranges = append(merged, b.ranges[j:]...)
}

// AddKey inserts a single value.
func (b *Bitmap) AddKey(v uint64) { b.Add(v, v+1) }

// AddRange inserts r.
func (b *Bitmap) AddRange(r Range) { b.Add(r.Start, r.End) }

// Contains reports whether v is in the set.
func (b *Bitmap) Contains(v uint64) bool {
	i := sort.Search(len(b.ranges), func(i int) bool { return b.ranges[i].End > v })
	return i < len(b.ranges) && b.ranges[i].Start <= v
}

// Remove deletes the half-open interval [start, end) from the set.
func (b *Bitmap) Remove(start, end uint64) {
	if start >= end || len(b.ranges) == 0 {
		return
	}
	var out []Range
	for _, r := range b.ranges {
		if r.End <= start || r.Start >= end {
			out = append(out, r)
			continue
		}
		if r.Start < start {
			out = append(out, Range{r.Start, start})
		}
		if r.End > end {
			out = append(out, Range{end, r.End})
		}
	}
	b.ranges = out
}

// Empty reports whether the set has no values.
func (b *Bitmap) Empty() bool { return len(b.ranges) == 0 }

// Count returns the number of values in the set.
func (b *Bitmap) Count() uint64 {
	var n uint64
	for _, r := range b.ranges {
		n += r.Len()
	}
	return n
}

// Ranges returns a copy of the underlying ranges in ascending order.
func (b *Bitmap) Ranges() []Range {
	out := make([]Range, len(b.ranges))
	copy(out, b.ranges)
	return out
}

// CloudRanges returns the portions of the set above CloudKeyBase — the
// object keys.
func (b *Bitmap) CloudRanges() []Range {
	var out []Range
	for _, r := range b.ranges {
		if r.End <= CloudKeyBase {
			continue
		}
		s := r.Start
		if s < CloudKeyBase {
			s = CloudKeyBase
		}
		out = append(out, Range{s, r.End})
	}
	return out
}

// BlockRanges returns the portions of the set below CloudKeyBase — the
// conventional block runs.
func (b *Bitmap) BlockRanges() []Range {
	var out []Range
	for _, r := range b.ranges {
		if r.Start >= CloudKeyBase {
			break
		}
		e := r.End
		if e > CloudKeyBase {
			e = CloudKeyBase
		}
		out = append(out, Range{r.Start, e})
	}
	return out
}

// Union adds every range of other into b.
func (b *Bitmap) Union(other *Bitmap) {
	for _, r := range other.ranges {
		b.Add(r.Start, r.End)
	}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{ranges: make([]Range, len(b.ranges))}
	copy(c.ranges, b.ranges)
	return c
}

// Marshal serializes the bitmap: a count followed by (start, end) pairs.
func (b *Bitmap) Marshal() []byte {
	buf := make([]byte, 8+16*len(b.ranges))
	binary.LittleEndian.PutUint64(buf, uint64(len(b.ranges)))
	for i, r := range b.ranges {
		binary.LittleEndian.PutUint64(buf[8+16*i:], r.Start)
		binary.LittleEndian.PutUint64(buf[16+16*i:], r.End)
	}
	return buf
}

// Unmarshal restores a bitmap from Marshal output.
func Unmarshal(data []byte) (*Bitmap, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("rfrb: short buffer (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	// Divide instead of multiplying: 16*n overflows for corrupt counts.
	if n > (uint64(len(data))-8)/16 {
		return nil, fmt.Errorf("rfrb: truncated: %d ranges in %d bytes", n, len(data))
	}
	b := &Bitmap{ranges: make([]Range, n)}
	var prev uint64
	for i := uint64(0); i < n; i++ {
		start := binary.LittleEndian.Uint64(data[8+16*i:])
		end := binary.LittleEndian.Uint64(data[16+16*i:])
		if start >= end || (i > 0 && start <= prev) {
			return nil, fmt.Errorf("rfrb: corrupt range %d: [%d,%d) after %d", i, start, end, prev)
		}
		b.ranges[i] = Range{start, end}
		prev = end
	}
	return b, nil
}

// String renders the set for debugging.
func (b *Bitmap) String() string {
	s := "{"
	for i, r := range b.ranges {
		if i > 0 {
			s += " "
		}
		if r.Len() == 1 {
			s += fmt.Sprintf("%d", r.Start)
		} else {
			s += fmt.Sprintf("%d-%d", r.Start, r.End-1)
		}
	}
	return s + "}"
}
