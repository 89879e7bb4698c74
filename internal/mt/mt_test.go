package mt

import (
	"testing"
	"testing/quick"
)

// Reference vector from mt19937-64.c (Matsumoto & Nishimura): the first
// outputs after init_by_array64 with {0x12345, 0x23456, 0x34567, 0x45678}.
func TestReferenceVector(t *testing.T) {
	want := []uint64{
		7266447313870364031,
		4946485549665804864,
		16945909448695747420,
		16394063075524226720,
		4873882236456199058,
	}
	s := NewByArray([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

func TestSingleSeedDeterministic(t *testing.T) {
	a, b := New(5489), New(5489)
	for i := 0; i < 2000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestReseed(t *testing.T) {
	s := New(99)
	first := s.Uint64()
	s.Seed(99)
	if got := s.Uint64(); got != first {
		t.Fatalf("after reseed got %d, want %d", got, first)
	}
}

func TestHash64Deterministic(t *testing.T) {
	f := func(v uint64) bool { return Hash64(v) == Hash64(v) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHash64Golden pins Hash64 on fixed keys: its top 16 bits are the
// prefix of every stored object name (core.KeyNamer), so its values must not
// move. Recorded from the array form it replaced.
func TestHash64Golden(t *testing.T) {
	for _, c := range []struct{ key, want uint64 }{
		{0x0, 0x28e837c5cb41dc3e},
		{0x1, 0x2245bd5fbb686f68},
		{0x2, 0xe75297ed09818a4c},
		{0x65, 0xfa12f777cbab9af},
		{0xdeadbeef, 0xc20369a413e28fc1},
		{0x100000000, 0x2a0077626dd09950},
		{0x7fffffffffffffff, 0x8c393a24d4a802e8},
		{0x8000000000000000, 0xc05fcbd49bf042a9},
		{0x8000000000000001, 0x86d3a956ea6fee30},
		{0x8000000000001000, 0xb11661adb1826f9d},
		{0xffffffffffffffff, 0x6a24a7a23fbc864},
		{0x123456789abcdef, 0xb6c31645639e9724},
	} {
		if got := Hash64(c.key); got != c.want {
			t.Errorf("Hash64(%#x) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

// TestHash64MatchesSeed: Hash64 is the first output of a generator seeded
// with the key, whose first twisted word reads only state words 0, 1 and mm.
func TestHash64MatchesSeed(t *testing.T) {
	for _, v := range []uint64{0, 1, 5489, 1 << 63, 0xffffffffffffffff} {
		s := New(v)
		if got, want := Hash64(v), s.Uint64(); got != want {
			t.Errorf("Hash64(%#x) = %#x, first output of New(%#x) is %#x", v, got, v, want)
		}
	}
}

func TestHash64SpreadsConsecutiveKeys(t *testing.T) {
	// Consecutive inputs (the pattern produced by the monotonic key
	// generator) must land in many distinct 12-bit prefixes; this is the
	// property the paper relies on to dodge per-prefix throttling.
	const n = 4096
	buckets := make(map[uint64]int)
	base := uint64(1) << 63
	for i := uint64(0); i < n; i++ {
		buckets[Hash64(base+i)>>52]++
	}
	if len(buckets) < n/4 {
		t.Fatalf("only %d distinct prefixes for %d consecutive keys", len(buckets), n)
	}
	for p, c := range buckets {
		if c > 16 {
			t.Fatalf("prefix %x received %d of %d keys; distribution too skewed", p, c, n)
		}
	}
}

func TestHash64AvalanchesLowBit(t *testing.T) {
	// Flipping the lowest input bit should change roughly half the output
	// bits on average.
	var totalFlips int
	const trials = 256
	for i := uint64(0); i < trials; i++ {
		d := Hash64(i) ^ Hash64(i^1)
		for ; d != 0; d &= d - 1 {
			totalFlips++
		}
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("average flipped bits = %.1f, want near 32", avg)
	}
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(uint64(i))
	}
	_ = sink
}

func BenchmarkUint64(b *testing.B) {
	s := New(5489)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}
