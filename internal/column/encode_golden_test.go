package column

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// segmentShape is one vector EncodeSegment is pinned on, with the encoding it
// must choose.
type segmentShape struct {
	name string
	enc  Encoding
	v    *Vector
}

// lcg keeps the shapes independent of math/rand's sequence.
type lcg uint64

func (x *lcg) next() uint64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return uint64(*x) >> 16
}

// distinctStrings is a 512-row string vector with exactly card distinct
// values, each a lineitem-comment-like word pair.
func distinctStrings(card int) *Vector {
	v := NewVector(String)
	x := lcg(card)
	for i := 0; i < 512; i++ {
		k := i % card
		if i >= card {
			k = int(x.next() % uint64(card))
		}
		v.AppendStr(fmt.Sprintf("furiously ironic %04d packages", k))
	}
	return v
}

// segmentShapes covers every encoding the chooser can pick, on 512-row
// pages, and the dictionary cut either side of half the row count.
func segmentShapes() []segmentShape {
	x := lcg(1)
	wide, nbit, rle, float := NewVector(Int64), NewVector(Int64), NewVector(Int64), NewVector(Float64)
	for i := 0; i < 512; i++ {
		wide.AppendInt(int64(x.next() << 20))
		nbit.AppendInt(int64(i)*32 + int64(x.next()%7))
		rle.AppendInt(int64(i / 64))
		float.AppendFloat(float64(90000+x.next()%10000000) / 100)
	}
	words := []string{"carefully", "final", "deposits", "sleep", "furiously", "among", "the", "ironic"}
	plain := NewVector(String)
	for i := 0; i < 512; i++ {
		plain.AppendStr(fmt.Sprintf("%s %s %d", words[x.next()%8], words[x.next()%8], x.next()))
	}
	return []segmentShape{
		{"plain_int", EncPlainInt, wide},
		{"nbit_int", EncBitPackedInt, nbit},
		{"rle_int", EncRLEInt, rle},
		{"plain_float", EncPlainFloat, float},
		{"plain_string", EncPlainString, plain},
		{"dict_string", EncDictString, distinctStrings(25)},
		{"card_255", EncDictString, distinctStrings(255)},
		{"card_256", EncPlainString, distinctStrings(256)},
		{"card_257", EncPlainString, distinctStrings(257)},
		{"empty_int", EncPlainInt, NewVector(Int64)},
		{"empty_string", EncPlainString, NewVector(String)},
	}
}

// TestEncodeSegmentGolden pins EncodeSegment's bytes on every shape: pages
// are what every stored byte and dollar is priced by, so a change to how a
// segment is built must not move them unless it means to.
func TestEncodeSegmentGolden(t *testing.T) {
	want := map[string]string{
		"plain_int":    "76c7a6cc6fd2a243838cea97f9c31d8b1fd688614f3a45b11d783b44223f0b13",
		"nbit_int":     "af48773b5433f4745a1119c78a7161611bc783275c7ff75c3bcfa2178825ffbd",
		"rle_int":      "b797df7e9a47c79ebe0c37cc19603434d476d2306ef5e555a343d2d9516280bc",
		"plain_float":  "c23b70c42e8bc0df9ad06270fb19e5cdaef604b0780d7cc5b034aaa7a3c2b12d",
		"plain_string": "a797691e70f90c9f87b6a8cdbd97993a18e34464b9321c01fcfb0cd1066d15d7",
		"dict_string":  "2090047ccc7209d8599210bc9b595642825d83aaf726906ec488ea89ecdc737e",
		"card_255":     "631fce90b834e0f446f829a5bbcf3de005b1f1093df8b24eeb3c124f601f10af",
		"card_256":     "1e2fb3ce4148ff2bcebdb4c62f767c731881a9db6fa5ba8d8b7f1cc0df265bb4",
		"card_257":     "c9de2e2cc3aaa62c8927c44f0988fe3f40722cb88a6bedabd037136201900fc1",
		"empty_int":    "b0f66adc83641586656866813fd9dd0b8ebb63796075661ba45d1aa8089e1d44",
		"empty_string": "f9d1a10b6885f6c28d841e07df992a2f620dd69e65d0a318523c232982158ed9",
	}
	for _, s := range segmentShapes() {
		page := EncodeSegment(s.v)
		if enc := Encoding(page[1]); enc != s.enc {
			t.Errorf("%s: encoded as %v, want %v", s.name, enc, s.enc)
		}
		h := sha256.Sum256(page)
		if got := hex.EncodeToString(h[:]); got != want[s.name] {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", s.name, len(page), got, want[s.name])
		}
		back, err := DecodeSegment(page)
		if err != nil || back.Len() != s.v.Len() {
			t.Errorf("%s: does not decode (err %v)", s.name, err)
		}
	}
}

var segmentSink []byte

// BenchmarkEncodeSegment covers the shapes TestEncodeSegmentGolden pins.
func BenchmarkEncodeSegment(b *testing.B) {
	for _, s := range segmentShapes() {
		if s.v.Len() == 0 {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				segmentSink = EncodeSegment(s.v)
			}
		})
	}
}
