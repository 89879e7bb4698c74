package buffer

import "cloudiq/internal/column"

// The pool's admission filter (DESIGN.md "Buffer pool"), after TinyLFU
// (Einziger et al., ACM TOS 2017). LRU alone keeps nothing of a cyclic scan
// over more pages than it holds: every page is evicted before its next use.
// So a page a read fetched takes a slot in a full pool only if it has been
// asked for more often than the page it would evict — counted by a
// fixed-size count-min sketch of every ReadBatch lookup, hit or miss — or if
// that page has gone untouched for a whole aging period, as the pages of a
// superseded table version do.
const (
	sketchRows  = 4
	sketchWidth = 1 << 14 // counters a row, indexed by 14 bits of the key's hash
	// sketchPeriod is how many lookups pass between two halvings of every
	// counter, so that what was hot long ago fades.
	sketchPeriod = 10 * sketchWidth
)

// sketch is a count-min sketch of 4-bit counters, sixteen to a word:
// sketchRows × sketchWidth / 2 bytes, 32 KiB a pool. Its hash is
// column.Mix's fixed constants, so which pages a run keeps depends only on
// the run. Guarded by Pool.mu.
type sketch struct {
	rows [sketchRows][sketchWidth / 16]uint64
	// ticks counts lookups, ever: the clock a page's last touch is read on.
	ticks uint64
	// since counts lookups since the last halving.
	since int
}

// slot returns the word and the bit offset of key's counter in row r.
func slot(h uint64, r int) (word int, shift uint) {
	i := int(h>>(16*r)) & (sketchWidth - 1)
	return i / 16, uint(i%16) * 4
}

// sketchHash folds both words of key into one 64-bit hash.
func sketchHash(key pageKey) uint64 { return column.Mix(column.Mix(0, key.space), key.page) }

// add counts one lookup of key, saturating each counter at 15, and halves
// every counter once a period has passed.
func (s *sketch) add(key pageKey) {
	h := sketchHash(key)
	for r := range s.rows {
		w, shift := slot(h, r)
		if s.rows[r][w]>>shift&15 < 15 {
			s.rows[r][w] += 1 << shift
		}
	}
	s.ticks++
	if s.since++; s.since == sketchPeriod {
		s.since = 0
		for r := range s.rows {
			for w := range s.rows[r] {
				s.rows[r][w] = s.rows[r][w] >> 1 & 0x7777777777777777
			}
		}
	}
}

// estimate returns the least of key's counters: never below key's own count
// (capped at 15 and halved with the rest), above it only where other keys
// share all four of its counters.
func (s *sketch) estimate(key pageKey) uint64 {
	h := sketchHash(key)
	est := uint64(15)
	for r := range s.rows {
		w, shift := slot(h, r)
		est = min(est, s.rows[r][w]>>shift&15)
	}
	return est
}

// admitLocked reports whether pg, a clean page a read fetched, may be cached:
// always while it fits, and in a full pool only if the sketch counts it more
// often than the LRU victim, or the victim has gone untouched for a whole
// aging period. Called with p.mu held.
func (p *Pool) admitLocked(pg *page) bool {
	if p.size+int64(len(pg.data)) <= p.cfg.Capacity {
		return true
	}
	victim := p.victimLocked()
	return victim == nil || p.sketch.ticks-victim.touched >= sketchPeriod ||
		p.sketch.estimate(pg.key) > p.sketch.estimate(victim.key)
}
