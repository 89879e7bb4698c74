package column

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sort"
	"strings"
	"testing"

	"cloudiq/internal/mt"
)

// encodeStringsMap is the map-based dictionary encoder encodeStrings
// replaced, kept as its reference: every page the two write must be equal.
func encodeStringsMap(vals []string) (Encoding, []byte) {
	if len(vals) == 0 {
		return EncPlainString, newPage(0)
	}
	dict := make(map[string]int)
	for _, s := range vals {
		if dict[s] = 0; len(dict)*2 >= len(vals) {
			return EncPlainString, encodePlainStrings(vals)
		}
	}
	words := make([]string, 0, len(dict))
	for s := range dict {
		words = append(words, s)
	}
	sort.Strings(words)
	for i, s := range words {
		dict[s] = i
	}
	width := bits.Len64(uint64(len(words) - 1))
	codes := make([]int64, len(vals))
	for i, s := range vals {
		codes[i] = int64(dict[s])
	}
	out := newPage(4 + plainStringsLen(words) + packedLen(len(codes), width))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(words)))
	for _, s := range words {
		out = appendString(out, s)
	}
	return EncDictString, packInts(out, codes, 0, width)
}

// dictWord is the k-th of a family of words that share long prefixes and
// differ only in their last byte, with the empty string among them and
// lengths either side of hashString's eight-byte step.
func dictWord(k int) string {
	if k == 0 {
		return ""
	}
	return strings.Repeat("ab", k%7) + "furiously ironic" + string(rune('a'+k/7%26)) + string(rune('0'+k/182))
}

// cardVector is n values with exactly card distinct words, in a random order.
func cardVector(r *mt.Source, n, card int) []string {
	vals := make([]string, n)
	for i := range vals {
		k := i
		if i >= card {
			k = int(r.Uint64() % uint64(card))
		}
		vals[i] = dictWord(k)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		vals[i], vals[j] = vals[j], vals[i]
	}
	return vals
}

// TestEncodeStringsMatchesMap holds encodeStrings to the map-based encoder,
// byte for byte, either side of the dictionary cut (distinct × 2 ≥ n) and on
// runs, repeats, empty strings and words a last byte apart.
func TestEncodeStringsMatchesMap(t *testing.T) {
	r := mt.New(*propSeed + 3)
	var cases [][]string
	for _, n := range []int{1, 2, 3, 511, 512} {
		for _, card := range []int{n/2 - 1, n / 2, n/2 + 1} {
			card = min(max(card, 1), n)
			for range 4 {
				vals := cardVector(r, n, card)
				if d := len(distinct(vals)); d != card {
					t.Fatalf("cardVector(%d, %d) holds %d distinct words", n, card, d)
				}
				cases = append(cases, vals)
			}
		}
	}
	same, empty, runs, lastByte := make([]string, 512), make([]string, 512), make([]string, 512), make([]string, 512)
	for i := range same {
		same[i] = "constant-value"
		runs[i] = dictWord(i / 64)
		lastByte[i] = "Customer#00000000" + string(rune('a'+i%26))
		if i%5 == 0 {
			empty[i] = "x"
		}
	}
	cases = append(cases, same, empty, runs, lastByte, runs[:1], empty[:2])
	for i, vals := range cases {
		wantEnc, want := encodeStringsMap(vals)
		gotEnc, got, _, _ := encodeStrings(vals)
		if gotEnc != wantEnc || !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d values): %v of %d bytes, want %v of %d bytes", i, len(vals), gotEnc, len(got), wantEnc, len(want))
		}
	}
}

func distinct(vals []string) map[string]bool {
	m := make(map[string]bool)
	for _, s := range vals {
		m[s] = true
	}
	return m
}

// TestEncodeSegmentZone: the zone map EncodeSegmentZone takes from a
// dictionary's sorted words is BuildZoneMap's, on both sides of the
// dictionary/plain cut (cardinality half the values), with bounds past the
// truncation length and the empty word among them; the page is
// EncodeSegment's, and other types keep BuildZoneMap.
func TestEncodeSegmentZone(t *testing.T) {
	r := mt.New(0x20E)
	var vecs []*Vector
	for _, n := range []int{1, 2, 3, 64, 511} {
		for card := max(1, n/2-2); card <= min(n, n/2+2); card++ {
			vecs = append(vecs, &Vector{Typ: String, Str: cardVector(r, n, card)})
		}
	}
	vecs = append(vecs, &Vector{Typ: String}, &Vector{Typ: Int64, I64: []int64{3, -1, 3}},
		&Vector{Typ: Float64, F64: []float64{2.5, -0.5}}, &Vector{Typ: String, Str: []string{"x", "x", "x"}})
	dicts, plains, truncated := 0, 0, 0
	for i, v := range vecs {
		page, zone := EncodeSegmentZone(v)
		if !bytes.Equal(page, EncodeSegment(v)) {
			t.Fatalf("vector %d: the page differs from EncodeSegment's", i)
		}
		if want := BuildZoneMap(v); zone != want {
			t.Fatalf("vector %d (%v, %d values): zone %+v, BuildZoneMap %+v", i, Encoding(page[1]), v.Len(), zone, want)
		}
		switch {
		case Encoding(page[1]) == EncDictString:
			dicts++
			if len(zone.MaxStr) > zoneStrLen {
				truncated++
			}
		case v.Typ == String && v.Len() > 0:
			plains++
		}
	}
	if dicts < 5 || plains < 5 || truncated == 0 {
		t.Fatalf("%d dictionary pages (%d with a truncated bound) and %d plain ones: the cases miss the cut", dicts, truncated, plains)
	}
}
