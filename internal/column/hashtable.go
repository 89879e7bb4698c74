package column

import (
	"math"
	"math/bits"
)

// HashTable indexes rows of key columns for the hash operators: join build
// sides and group-by keys both go through it. Hashes are computed a column
// at a time; slots are an open-addressing, linear-probing, power-of-two
// array; and two keys are equal when every column compares equal
// under its own type — no byte encoding of a key is ever built, so a key of
// any shape takes the same path and values of different columns cannot run
// into each other. Floats hash and compare by bit pattern: -0.0 and +0.0 are
// different keys and a NaN equals itself.
//
// The hash uses fixed constants, so a table's layout is a pure function of
// the rows it was given; and nothing a caller can observe (the ids Insert and
// Find return, the order of Keys) depends on hash values at all.
//
// A single Int64 key column whose values lie in a narrow range takes the
// direct form instead: the key k is entry k−lo of an []int32 holding the
// stored row + 1 (0 is empty), so it is never hashed, tagged or compared. A
// range is narrow while it has at most directPerSlot·slotsFor(n) entries for
// the n keys the table is sized for, so the array takes at most twice the
// bytes of the slot array it replaces. IndexRows chooses its form once;
// Insert stays direct while every batch fits the bound and moves the table
// to slots for good at the first batch that does not. Either way a key gets
// the same id, so no output depends on the form.
//
// The zero HashTable is an empty table that owns its key columns: Insert
// appends each new key to them and hands out dense ids in first-seen order.
// IndexRows instead indexes columns the caller already holds, in place. Row
// numbers and ids are int32: a table holds fewer than 2^31 rows.
type HashTable struct {
	keys    []*Vector // stored key columns; a slot's row indexes them
	inPlace bool      // keys are the caller's (IndexRows) and complete
	slots   []uint64  // high 32 bits of the hash <<32 | stored row+1; 0 is empty
	direct  []int32   // direct form: entry k−lo is key k's stored row+1; 0 is empty
	lo      int64     // the key at direct[0]; lo+len(direct)-1 never passes MaxInt64
	n       int       // distinct keys
	hashes  []uint64  // scratch: the current batch's hashes
}

// directPerSlot bounds the direct form: its array has at most this many
// int32 entries per uint64 slot the hashed form would allocate.
const directPerSlot = 4

// IndexRows builds a table over the first n rows of keys without copying
// them: a key's stored row is the first row that holds it. ids[r] is set to
// that row for every r (so ids[r] == r exactly where a key first appears),
// and Find answers with those rows. keys must not change while the table is
// in use.
func IndexRows(keys []*Vector, n int, ids []int32) (*HashTable, []int32) {
	t := &HashTable{keys: keys, inPlace: true}
	if n > 0 && isDirectKey(keys) && t.fitDirect(keys[0].I64[:n]) {
		return t, t.indexDirect(keys[0].I64[:n], ids)
	}
	t.rehash(slotsFor(n))
	return t, t.probe(keys, n, ids, true)
}

// Len returns the number of distinct keys in the table.
func (t *HashTable) Len() int { return t.n }

// Keys returns the key columns of a table that owns them: row i is the key
// with id i. It is nil until the first Insert.
func (t *HashTable) Keys() []*Vector { return t.keys }

// Insert looks up the first n rows of keys, adding each key it has not seen,
// and sets ids[r] to the id of row r's key. Ids are dense and in first-seen
// order, so a row introduced a new key exactly when its id equals the number
// of keys before it. Every call must pass columns of the same types in the
// same order. ids is reused when it is large enough.
func (t *HashTable) Insert(keys []*Vector, n int, ids []int32) []int32 {
	if t.keys == nil {
		t.keys = make([]*Vector, len(keys))
		for c, k := range keys {
			t.keys[c] = NewVector(k.Typ)
		}
	}
	if n == 0 {
		return ids[:0] // an empty batch decides no form
	}
	if t.slots == nil && isDirectKey(keys) && t.fitDirect(keys[0].I64[:n]) {
		return t.indexDirect(keys[0].I64[:n], ids)
	}
	return t.probe(keys, n, ids, true)
}

// Find looks up the first n rows of keys and sets ids[r] to the stored row
// (the id, for a table that owns its keys) of row r's key, or -1 when the
// table does not hold it. The columns must match the stored ones in number
// and type.
func (t *HashTable) Find(keys []*Vector, n int, ids []int32) []int32 {
	if t.direct == nil {
		return t.probe(keys, n, ids, false)
	}
	ids = sized(ids, n)
	size := uint64(len(t.direct))
	for r, k := range keys[0].I64[:n] {
		ids[r] = -1
		if i := uint64(k) - uint64(t.lo); i < size {
			ids[r] = t.direct[i] - 1
		}
	}
	return ids
}

// isDirectKey reports whether keys have the shape the direct form takes: one
// Int64 column.
func isDirectKey(keys []*Vector) bool { return len(keys) == 1 && keys[0].Typ == Int64 }

// directLimit is the largest span hi−lo (entries − 1) the direct form allows
// for a table sized for n keys.
func directLimit(n int) uint64 { return uint64(directPerSlot*slotsFor(n)) - 1 }

func minMax(ks []int64) (lo, hi int64) {
	lo, hi = ks[0], ks[0]
	for _, k := range ks[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// fitDirect makes the direct array cover the batch ks and reports whether it
// could. A first batch within the bound gets an array of exactly its range.
// A batch outside the array regrows it, at least doubling, with the new room
// on the side the batch fell; a batch that would take the range past the
// bound for the keys held plus the batch's rows moves the table to slots,
// where it stays.
func (t *HashTable) fitDirect(ks []int64) bool {
	lo, hi := minMax(ks)
	size := uint64(len(t.direct))
	down := size > 0 && lo < t.lo
	if size > 0 {
		if uint64(lo)-uint64(t.lo) < size && uint64(hi)-uint64(t.lo) < size {
			return true
		}
		lo, hi = min(lo, t.lo), max(hi, t.lo+int64(size-1))
	}
	limit := directLimit(t.n + len(ks))
	if uint64(hi)-uint64(lo) > limit {
		if size > 0 {
			t.toSlots()
		}
		return false
	}
	grown := max(uint64(hi)-uint64(lo)+1, min(2*size, limit+1))
	room := int64(grown - 1)
	// The new room goes above, or below when the batch fell below, and the
	// array stays within int64 either way.
	newLo := lo
	switch {
	case down && hi < math.MinInt64+room:
		newLo = math.MinInt64
	case down:
		newLo = hi - room
	case lo > math.MaxInt64-room:
		newLo = math.MaxInt64 - room
	}
	d := make([]int32, grown)
	if size > 0 {
		copy(d[uint64(t.lo)-uint64(newLo):], t.direct)
	}
	t.lo, t.direct = newLo, d
	return true
}

// indexDirect looks up each key of ks in the direct array, which covers
// them, adding each one it has not seen.
func (t *HashTable) indexDirect(ks []int64, ids []int32) []int32 {
	ids = sized(ids, len(ks))
	d, lo := t.direct, uint64(t.lo)
	for r, k := range ks {
		e := &d[uint64(k)-lo]
		if *e == 0 {
			row := int32(r)
			if !t.inPlace {
				row = int32(t.n)
				t.keys[0].I64 = append(t.keys[0].I64, k)
			}
			t.n++
			*e = row + 1
		}
		ids[r] = *e - 1
	}
	return ids
}

// toSlots moves a direct table's keys into a slot array, hashing each stored
// key as hashRows hashes a one-column Int64 key.
func (t *HashTable) toSlots() {
	t.direct = nil
	t.slots = make([]uint64, slotsFor(t.n))
	for id, k := range t.keys[0].I64 {
		t.place(Mix(hashSeed, uint64(k))>>32<<32 | uint64(id+1))
	}
}

// sized returns ids with length n, reusing it when it is large enough.
func sized(ids []int32, n int) []int32 {
	if cap(ids) < n {
		return make([]int32, n)
	}
	return ids[:n]
}

func (t *HashTable) probe(keys []*Vector, n int, ids []int32, insert bool) []int32 {
	t.hashes = hashRows(t.hashes, keys, n)
	ids = sized(ids, n)
	if len(t.slots) == 0 {
		t.rehash(slotsFor(0))
	}
	for r, h := range t.hashes {
		if insert && 2*(t.n+1) > len(t.slots) {
			t.rehash(2 * len(t.slots))
		}
		mask := uint32(len(t.slots) - 1)
		tag := uint32(h >> 32)
		for i := tag & mask; ; i = (i + 1) & mask {
			s := t.slots[i]
			if s == 0 {
				if !insert {
					ids[r] = -1
					break
				}
				row := int32(r)
				if !t.inPlace {
					row = int32(t.n)
					for c, k := range keys {
						t.keys[c].Append(k, r)
					}
				}
				t.n++
				t.slots[i] = uint64(tag)<<32 | uint64(row+1)
				ids[r] = row
				break
			}
			if uint32(s>>32) == tag {
				row := int32(uint32(s)) - 1
				if equalRows(keys, r, t.keys, int(row)) {
					ids[r] = row
					break
				}
			}
		}
	}
	return ids
}

// slotsFor is the slot count that keeps n keys at or under half load.
func slotsFor(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// rehash moves every entry into a fresh slot array of the given power-of-two
// size. A slot carries the hash bits its position comes from, so no key is
// hashed or compared again.
func (t *HashTable) rehash(size int) {
	old := t.slots
	t.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// place puts slot s at the first free position from the one its hash bits
// name.
func (t *HashTable) place(s uint64) {
	mask := uint32(len(t.slots) - 1)
	i := uint32(s>>32) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// equalRows reports whether row ar of columns a and row br of columns b hold
// the same key.
func equalRows(a []*Vector, ar int, b []*Vector, br int) bool {
	for c, av := range a {
		bv := b[c]
		switch av.Typ {
		case Int64:
			if av.I64[ar] != bv.I64[br] {
				return false
			}
		case Float64:
			if math.Float64bits(av.F64[ar]) != math.Float64bits(bv.F64[br]) {
				return false
			}
		default:
			if av.Str[ar] != bv.Str[br] {
				return false
			}
		}
	}
	return true
}

// Fixed hash constants (odd, high-entropy: the first two of wyhash's default
// secret). There is deliberately no per-process seed: the simulator's runs
// must be a pure function of their own seeds.
const (
	hashSeed = 0xa0761d6478bd642f
	hashMul  = 0xe7037ed1a0b428db
)

// Mix folds the 64-bit value x into the running hash h: a 64×64→128-bit
// multiply with the halves xor-ed together. It is the engine's one
// fixed-constant hash: the hash table's rows and the buffer pool's admission
// sketch both use it.
func Mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x, hashMul)
	return hi ^ lo
}

// hashRows writes one hash per row of the first n rows of keys into dst,
// a column at a time: the type switch runs once per column, not per value.
func hashRows(dst []uint64, keys []*Vector, n int) []uint64 {
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for r := range dst {
		dst[r] = hashSeed
	}
	for _, k := range keys {
		switch k.Typ {
		case Int64:
			for r, x := range k.I64[:n] {
				dst[r] = Mix(dst[r], uint64(x))
			}
		case Float64:
			for r, x := range k.F64[:n] {
				dst[r] = Mix(dst[r], math.Float64bits(x))
			}
		default:
			for r, s := range k.Str[:n] {
				dst[r] = hashString(dst[r], s)
			}
		}
	}
	return dst
}

// hashString folds s into h eight bytes at a time; the last step takes the
// remaining 0–7 bytes with the length above them, so a string and its
// zero-padded extension differ and a short string costs one step.
func hashString(h uint64, s string) uint64 {
	last := uint64(len(s)) << 56
	for len(s) >= 8 {
		x := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = Mix(h, x)
		s = s[8:]
	}
	// Two loads that may overlap put each remaining byte at 8×its index.
	switch n := len(s); {
	case n >= 4:
		lo := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
		hi := uint64(s[n-4]) | uint64(s[n-3])<<8 | uint64(s[n-2])<<16 | uint64(s[n-1])<<24
		last |= lo | hi<<(8*(n-4))
	case n >= 2:
		last |= uint64(s[0]) | uint64(s[1])<<8 | uint64(s[n-2])<<(8*(n-2)) | uint64(s[n-1])<<(8*(n-1))
	case n == 1:
		last |= uint64(s[0])
	}
	return Mix(h, last)
}
