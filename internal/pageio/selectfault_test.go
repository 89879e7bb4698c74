package pageio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cloudiq/internal/column"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/objstore"
)

// seedColumn stores one encoded int64 column object and returns its values.
func seedColumn(t *testing.T, s objstore.Store, key string, vals ...int64) {
	t.Helper()
	v := column.NewVector(column.Int64)
	for _, x := range vals {
		v.AppendInt(x)
	}
	put(t, s, key, column.EncodeSegment(v))
}

// TestSelectFaultNotRetried: an injected obj.select failure is a signal to
// fall back to plain reads, not an eventual-consistency miss — the retry
// stage must surface it after exactly one attempt instead of burning the
// read budget in backoff.
func TestSelectFaultNotRetried(t *testing.T) {
	ctx := context.Background()
	plan := faultinject.New(7).Always(faultinject.ObjSelect)
	store := objstore.NewMem(objstore.Config{Faults: plan})
	seedColumn(t, store, "col/a", 1, 2, 3)

	h := Chain(NewStore(store), Retry(Policy{ReadAttempts: 5}))
	_, err := Select(h, ctx, objstore.SelectRequest{
		Cols: []objstore.SelectCol{{Name: "a", Key: "col/a"}},
		Plan: objstore.SelectPlan{Project: []string{"a"}},
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if got := plan.Calls(faultinject.ObjSelect); got != 1 {
		t.Errorf("obj.select attempts = %d, want 1 (no retry on injected select fault)", got)
	}
}

// TestBatchFaultEquivalenceWithSelect is the satellite property test: random
// batches through the Retry stack, with a random subset of
// keys failing persistently and an injected obj.select fault landing
// mid-scan, must stay outcome-equivalent to issuing every read individually
// — per-item errors via BatchError, healthy neighbours unharmed, and the
// failed select never contaminating the read path it falls back to.
func TestBatchFaultEquivalenceWithSelect(t *testing.T) {
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(31))

	for trial := 0; trial < 60; trial++ {
		plan := faultinject.New(uint64(trial)).Always(faultinject.ObjSelect)
		store := objstore.NewMem(objstore.Config{Faults: plan})

		n := 2 + rnd.Intn(7)
		keys := make([]string, n)
		bad := make([]bool, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("col/k%d", i)
			seedColumn(t, store, keys[i], int64(i), int64(i*10))
			if rnd.Intn(3) == 0 {
				bad[i] = true
				plan.Always(faultinject.ObjGet.With(keys[i]))
			}
		}

		h := Chain(NewStore(store), Retry(Policy{ReadAttempts: 2}))

		// The pushdown attempt fails mid-scan (obj.select is Always-armed);
		// the scan falls back to the batched read below, exactly the fallback
		// sequence the exec layer performs.
		if _, err := Select(h, ctx, objstore.SelectRequest{
			Cols: []objstore.SelectCol{{Name: "a", Key: keys[0]}},
			Plan: objstore.SelectPlan{Project: []string{"a"}},
		}); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("trial %d: select err = %v, want injected", trial, err)
		}

		refs := make([]Ref, n)
		for i, k := range keys {
			refs[i] = Ref{Key: k}
		}
		out, err := h.ReadBatch(ctx, refs)
		errs := ItemErrors(err, n)

		for i := range refs {
			one, oneErr := h.ReadPage(ctx, refs[i])
			if (errs[i] == nil) != (oneErr == nil) {
				t.Fatalf("trial %d key %s: batch err %v vs individual %v", trial, keys[i], errs[i], oneErr)
			}
			if bad[i] {
				if !errors.Is(errs[i], faultinject.ErrInjected) {
					t.Fatalf("trial %d key %s: err = %v, want injected", trial, keys[i], errs[i])
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("trial %d key %s: healthy item failed: %v", trial, keys[i], errs[i])
			}
			if string(out[i]) != string(one) {
				t.Fatalf("trial %d key %s: batch data diverges from individual read", trial, keys[i])
			}
		}
	}
}
