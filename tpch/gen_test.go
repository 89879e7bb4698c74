package tpch

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"cloudiq"
)

// genGolden is the SHA-256 of every file Generate writes at scale factor
// 0.002 in two files per table, computed at the parent of the commit that
// replaced fmt.Fprintf with strconv appends (6de80f9): the generator's output
// is an input of every benchmark golden and may not move by a byte.
var genGolden = map[string]string{
	"customer/chunk000.tbl": "4584beefb1f79d9f7129d6b86759bb281ebacfa90e351a6bc128c3072135458c",
	"customer/chunk001.tbl": "b3ca0ad6d3094d10e5d8946cc99ca5df098efb6c6c699438224febde838cc405",
	"lineitem/chunk000.tbl": "3a47281549f8a70816baf85ae273c31b1220497976b82ff8806e03d1e4d9bc40",
	"lineitem/chunk001.tbl": "79949b63967768ca1aac12d50ebe0a1024fb6024c166561cd19b54420ab0ff9d",
	"nation/chunk000.tbl":   "b5b560fad0a15fc2b072cf08986d91231aa88dc0fea080bfd49b9fffcd98b731",
	"orders/chunk000.tbl":   "6c1e5aacf38564ee788f52ace19745995206a0ffec2eeccf60b1bfe1fc33eeda",
	"orders/chunk001.tbl":   "3cdf556a87808e4e367a7076414aa226a2abb39dc273fdef79d2e21e089af032",
	"part/chunk000.tbl":     "9fedc39e9131028de119346f0c09658318791bf261b366821f88f23729bf58c7",
	"part/chunk001.tbl":     "082eac1766d2fa9749ea9c55814c955dcd0f6ac828a842a972885b2b517d87de",
	"partsupp/chunk000.tbl": "15e1289a2f0a9048fc8568bc13a0e8e9dba74e8f84c84e82e08b058fbf113bcb",
	"partsupp/chunk001.tbl": "f74ef58701d71f718da257a74d4d9394640184ba4d1d6d6909dd8047ab4bc6c4",
	"region/chunk000.tbl":   "c9a137c42315d7bf6aeb94b39ba5965bd6caf911d391b0859103fb60ff06fd43",
	"supplier/chunk000.tbl": "0f4a074ecce7f4967bcf3db47e84954f7aa3597dc5c36eb306a8e7121589eaa6",
	"supplier/chunk001.tbl": "d472b88df4159ba35f748eefafb7ab2e021edf7cad4eb1bf575153ffd8fb0302",
}

func TestGenerateGolden(t *testing.T) {
	store := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{})
	if _, err := Generate(ctxb(), store, "tpch/", 0.002, 2); err != nil {
		t.Fatal(err)
	}
	keys, err := store.List(ctxb(), "tpch/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(genGolden) {
		t.Fatalf("generated %d files, golden has %d", len(keys), len(genGolden))
	}
	for _, k := range keys {
		data, err := store.Get(ctxb(), k)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != genGolden[k[len("tpch/"):]] {
			t.Errorf("%s: sha256 %s, golden %s", k, got, genGolden[k[len("tpch/"):]])
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{})
		if _, err := Generate(ctxb(), store, "tpch/", 0.02, 4); err != nil {
			b.Fatal(err)
		}
	}
}
