// Package mt implements the 64-bit Mersenne Twister (MT19937-64) of
// Matsumoto and Nishimura. The paper uses it as the computationally
// efficient hash that turns a 64-bit object key into a randomized key
// prefix, spreading requests across object-store prefixes to avoid
// per-prefix request throttling.
package mt

const (
	nn      = 312
	mm      = 156
	matrixA = 0xB5026F5AA96619E9
	upper   = 0xFFFFFFFF80000000 // most significant 33 bits
	lower   = 0x7FFFFFFF         // least significant 31 bits
)

// Source is an MT19937-64 generator. The zero value is not valid; use New or
// NewByArray.
type Source struct {
	state [nn]uint64
	index int
}

// New returns a Source seeded with seed, following init_genrand64 of the
// reference implementation.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed re-initializes the generator state from a single 64-bit seed.
func (s *Source) Seed(seed uint64) {
	s.state[0] = seed
	for i := uint64(1); i < nn; i++ {
		s.state[i] = 6364136223846793005*(s.state[i-1]^(s.state[i-1]>>62)) + i
	}
	s.index = nn
}

// NewByArray returns a Source seeded with the given key array, following
// init_by_array64 of the reference implementation.
func NewByArray(key []uint64) *Source {
	s := New(19650218)
	i, j := uint64(1), 0
	k := len(key)
	if nn > k {
		k = nn
	}
	for ; k > 0; k-- {
		s.state[i] = (s.state[i] ^ ((s.state[i-1] ^ (s.state[i-1] >> 62)) * 3935559000370003845)) + key[j] + uint64(j)
		i++
		j++
		if i >= nn {
			s.state[0] = s.state[nn-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = nn - 1; k > 0; k-- {
		s.state[i] = (s.state[i] ^ ((s.state[i-1] ^ (s.state[i-1] >> 62)) * 2862933555777941757)) - i
		i++
		if i >= nn {
			s.state[0] = s.state[nn-1]
			i = 1
		}
	}
	s.state[0] = 1 << 63 // assures non-zero initial state
	return s
}

// Uint64 returns the next value in the sequence.
func (s *Source) Uint64() uint64 {
	if s.index >= nn {
		s.generate()
	}
	x := s.state[s.index]
	s.index++

	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	x ^= x >> 43
	return x
}

func (s *Source) generate() {
	var mag01 = [2]uint64{0, matrixA}
	var i int
	for i = 0; i < nn-mm; i++ {
		x := (s.state[i] & upper) | (s.state[i+1] & lower)
		s.state[i] = s.state[i+mm] ^ (x >> 1) ^ mag01[x&1]
	}
	for ; i < nn-1; i++ {
		x := (s.state[i] & upper) | (s.state[i+1] & lower)
		s.state[i] = s.state[i+mm-nn] ^ (x >> 1) ^ mag01[x&1]
	}
	x := (s.state[nn-1] & upper) | (s.state[0] & lower)
	s.state[nn-1] = s.state[mm-1] ^ (x >> 1) ^ mag01[x&1]
	s.index = 0
}

// Hash64 maps v to a well-mixed 64-bit value by seeding a generator with v
// and drawing one output. This is the hashed-prefix function of §3.1: it is
// deterministic, cheap relative to an object-store round trip, and spreads
// consecutive keys across the prefix space.
func Hash64(v uint64) uint64 {
	// Seeding runs the full state expansion; for a hash we only need the
	// first tempered word, which reads state words 0, 1 and mm. Run Seed's
	// recurrence as far as word mm, keeping just those three.
	s1 := 6364136223846793005*(v^(v>>62)) + 1
	s := s1
	for i := uint64(2); i <= mm; i++ {
		s = 6364136223846793005*(s^(s>>62)) + i
	}
	x := (v & upper) | (s1 & lower)
	y := s ^ (x >> 1)
	if x&1 == 1 {
		y ^= matrixA
	}
	y ^= (y >> 29) & 0x5555555555555555
	y ^= (y << 17) & 0x71D67FFFEDA60000
	y ^= (y << 37) & 0xFFF7EEE000000000
	y ^= y >> 43
	return y
}
