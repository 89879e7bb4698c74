package txn

import (
	"bytes"
	"reflect"
	"testing"

	"cloudiq/internal/rfrb"
	"cloudiq/internal/wal"
)

// FuzzUnmarshalCommit: a commit record is stored bytes (the WAL replays it at
// recovery), so arbitrary payloads must come back as an error, never a panic.
// An accepted payload gives every dbspace both bitmaps, is exactly what
// MarshalCommit writes for the record it decodes to, and that record
// survives MarshalCommit → UnmarshalCommit unchanged.
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
		if !bytes.Equal(img, p) {
			t.Fatalf("accepted %x, which re-encodes as %x", p, img)
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

// FuzzCheckpoint: a checkpoint payload is stored bytes (recovery starts from
// it), so arbitrary payloads must come back as an error, never a panic. An
// accepted payload decodes to an image that re-encodes to a payload which
// decodes to the same image.
func FuzzCheckpoint(f *testing.F) {
	_, mgr, log := goldenState(f)
	if err := mgr.Checkpoint(ctxb()); err != nil {
		f.Fatal(err)
	}
	var consumed rfrb.Bitmap
	consumed.Add(rfrb.CloudKeyBase, rfrb.CloudKeyBase+7)
	secondary := checkpointImage{commitSeq: 3, nextTxnID: 9, consumed: &consumed}.marshal("w1")
	if err := log.Replay(ctxb(), func(rec wal.Record) error {
		if rec.Type == wal.RecCheckpoint {
			for _, p := range [][]byte{rec.Payload, secondary} {
				f.Add(p)
				f.Add(p[:len(p)-4]) // no extra section
				f.Add(p[:len(p)-7]) // cut inside a section
			}
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		img, err := parseCheckpoint(p)
		if err != nil {
			return
		}
		again := img.marshal("")
		back, err := parseCheckpoint(again)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if !reflect.DeepEqual(back, img) {
			t.Fatalf("round trip changed the image: %+v, then %+v", img, back)
		}
		if b := back.marshal(""); !bytes.Equal(b, again) {
			t.Fatalf("image re-encodes as %x, then %x", again, b)
		}
	})
}
