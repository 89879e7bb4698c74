package buffer

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"cloudiq/internal/core"
)

// modelPages is the logical address space the model test draws from: a
// table's first pages, plus two far above them, beyond the key memo's reach.
var modelPages = []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1 << 40, 1<<40 + 1}

// modelHandle is a handle beside the contents it must read back.
type modelHandle struct {
	obj *Object
	ref map[uint64][]byte
}

func cloneRef(ref map[uint64][]byte) map[uint64][]byte {
	out := make(map[uint64][]byte, len(ref))
	for l, d := range ref {
		out[l] = d
	}
	return out
}

// TestPoolModel drives seeded random interleavings of every pool operation
// over one blockmap lineage — a writer that commits or rolls back versions
// and two readers pinned to whichever version was current when they opened —
// against a reference map per handle. Every read must return the reference
// bytes, at each quiescent point the pool's accounting must add up, and —
// every image the writer produces being distinct — no image may have reached
// the dbspace twice: a dirty version is flushed at most once.
// Asynchronous reads run on goroutines of their own, joined at every
// quiescent point, so under -race the evictions, eviction-time flushes,
// re-keyings and admission refusals they cause overlap the foreground ops.
func TestPoolModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		capacity int64 // pages are 40–160 bytes
		steps    int
	}{
		{"one-page", 1, 170, 1500},
		{"tiny", 2, 400, 1500},
		{"tiny-2", 3, 400, 1500},
		{"half", 4, 1000, 1500},
		{"roomy", 5, 1 << 20, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			r := newShareRig(t, tc.capacity)
			var async sync.WaitGroup

			var committed modelHandle // obj unused: the version readers open
			var id core.Identity
			var w modelHandle
			var readers [2]modelHandle
			openWriter := func() {
				w = modelHandle{obj: r.writer(t, id), ref: cloneRef(committed.ref)}
			}
			openReader := func(i int) {
				readers[i] = modelHandle{obj: r.reader(t, id), ref: committed.ref}
			}
			commit := func() {
				var err error
				if id, err = w.obj.FlushForCommit(ctxb()); err != nil {
					t.Fatal(err)
				}
				committed.ref = w.ref
				openWriter()
			}
			pick := func(h modelHandle, n int) []uint64 {
				var out []uint64
				for len(out) < n {
					if l := modelPages[rng.Intn(len(modelPages))]; h.ref[l] != nil {
						out = append(out, l)
					}
				}
				return out
			}
			check := func(h modelHandle, step int, logicals []uint64, got [][]byte, err error) {
				if err != nil {
					t.Fatalf("step %d: read %v: %v", step, logicals, err)
				}
				for i, l := range logicals {
					if !bytes.Equal(got[i], h.ref[l]) {
						t.Fatalf("step %d: page %d reads %d bytes starting %v, reference has %d starting %v",
							step, l, len(got[i]), got[i][:4], len(h.ref[l]), h.ref[l][:4])
					}
				}
			}

			// image draws a page and stamps it with a version number, so
			// that no two writes carry the same bytes.
			var version uint64
			image := func() []byte {
				d := pageData(uint64(rng.Int63()), 40+rng.Intn(120))
				version++
				binary.LittleEndian.PutUint64(d, version)
				return d
			}

			w = modelHandle{obj: r.writer(t, core.Identity{}), ref: map[uint64][]byte{}}
			for _, l := range modelPages[:6] {
				w.ref[l] = image()
				if err := w.obj.Write(ctxb(), l, w.ref[l]); err != nil {
					t.Fatal(err)
				}
			}
			commit()
			openReader(0)
			openReader(1)

			for step := 0; step < tc.steps; step++ {
				h := w
				if i := rng.Intn(3); i < 2 {
					h = readers[i]
				}
				switch op := rng.Intn(20); {
				case op < 5: // read
					ls := pick(h, 1)
					got, err := h.obj.Read(ctxb(), ls[0])
					check(h, step, ls, [][]byte{got}, err)
				case op < 8: // read-batch
					ls := pick(h, 1+rng.Intn(5))
					got, err := h.obj.ReadBatch(ctxb(), ls)
					check(h, step, ls, got, err)
				case op < 10: // asynchronous read-batch, result discarded
					ls := pick(h, 1+rng.Intn(5))
					async.Add(1)
					go func() {
						defer async.Done()
						_, _ = h.obj.ReadBatch(ctxb(), ls)
					}()
				case op < 15: // write
					l := modelPages[rng.Intn(len(modelPages))]
					w.ref[l] = image()
					if err := w.obj.Write(ctxb(), l, w.ref[l]); err != nil {
						t.Fatal(err)
					}
				case op < 16: // flush-for-commit: the next writer continues from it
					commit()
				case op < 17: // discard: roll the writer back to the committed version
					w.obj.Discard()
					openWriter()
				case op < 18: // a reader moves to the current version
					openReader(rng.Intn(2))
				case op < 19: // a page no version of this handle has
					for _, l := range modelPages {
						if h.ref[l] == nil {
							if _, err := h.obj.Read(ctxb(), l); err == nil {
								t.Fatalf("step %d: read of unmapped page %d succeeded", step, l)
							}
							break
						}
					}
				default: // quiescent point
					async.Wait()
					checkAccounting(t, r.pool)
					r.cds.checkWrittenOnce(t)
					if size := r.pool.Size(); size > tc.capacity {
						t.Fatalf("step %d: %d bytes cached at rest, capacity %d", step, size, tc.capacity)
					}
				}
			}
			async.Wait()
			checkAccounting(t, r.pool)
			r.cds.checkWrittenOnce(t)
			// Below roomy's, every capacity is small enough that the
			// admission filter refuses reads a slot, under the same oracles.
			if s := r.pool.Stats(); tc.capacity < 1<<20 && s.Refused == 0 {
				t.Fatalf("stats %+v: no read was refused a slot", s)
			}
			for _, h := range []modelHandle{w, readers[0], readers[1]} {
				for l := range h.ref {
					got, err := h.obj.Read(ctxb(), l)
					check(h, tc.steps, []uint64{l}, [][]byte{got}, err)
				}
			}
		})
	}
}
