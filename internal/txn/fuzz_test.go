package txn

import (
	"bytes"
	"testing"

	"cloudiq/internal/rfrb"
)

// FuzzUnmarshalCommit: a commit record is stored bytes (the WAL replays it at
// recovery), so arbitrary payloads must come back as an error, never a panic.
// An accepted payload gives every dbspace both bitmaps, and the record it
// decodes to survives MarshalCommit → UnmarshalCommit unchanged, in no more
// bytes than it was read from.
func FuzzUnmarshalCommit(f *testing.F) {
	var rf, rb rfrb.Bitmap
	rf.Add(10, 20)
	rf.Add(30, 31)
	rb.Add(rfrb.CloudKeyBase+5, rfrb.CloudKeyBase+9)
	for _, rec := range []CommitRecord{
		{TxnID: 1},
		{TxnID: 42, Node: "w1", Meta: []byte("catalog"), Spaces: []SpaceBitmaps{
			{Space: "user", RF: &rf, RB: &rb},
			{Space: "main", RF: &rfrb.Bitmap{}, RB: &rfrb.Bitmap{}},
		}},
	} {
		img := MarshalCommit(rec)
		f.Add(img)
		f.Add(img[:len(img)-3])
		f.Add(append(img, 0xff)) // trailing bytes
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := UnmarshalCommit(p)
		if err != nil {
			return
		}
		for i, sp := range rec.Spaces {
			if sp.RF == nil || sp.RB == nil {
				t.Fatalf("space %d (%q): RF %v, RB %v", i, sp.Space, sp.RF, sp.RB)
			}
		}
		img := MarshalCommit(rec)
		if len(img) > len(p) {
			t.Fatalf("%d payload bytes decode to a record of %d bytes", len(p), len(img))
		}
		back, err := UnmarshalCommit(img)
		if err != nil {
			t.Fatalf("re-marshalled record rejected: %v", err)
		}
		if back.TxnID != rec.TxnID || back.Node != rec.Node || !bytes.Equal(back.Meta, rec.Meta) || len(back.Spaces) != len(rec.Spaces) {
			t.Fatalf("round trip changed the record: %+v, then %+v", rec, back)
		}
		for i, sp := range rec.Spaces {
			got := back.Spaces[i]
			if got.Space != sp.Space || got.RF.String() != sp.RF.String() || got.RB.String() != sp.RB.String() {
				t.Fatalf("space %d: %q %v %v, then %q %v %v", i, sp.Space, sp.RF, sp.RB, got.Space, got.RF, got.RB)
			}
		}
	})
}
