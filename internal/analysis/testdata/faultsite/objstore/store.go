// Package objstore is a faultsite golden corpus: its directory base matches a
// storage boundary package, so every exported mutating operation must route
// through a faultinject hook or delegate the mutation to another covered
// boundary.
package objstore

import (
	"context"

	"cloudiq/internal/faultinject"
	upstream "cloudiq/internal/objstore"
)

// NakedStore mutates state with no fault hook anywhere in its call closure.
type NakedStore struct {
	objects map[string][]byte
}

func (s *NakedStore) Put(ctx context.Context, key string, val []byte) error { // want "faultsite: exported mutating operation NakedStore.Put has no faultinject site"
	if s.objects == nil {
		s.objects = make(map[string][]byte)
	}
	s.objects[key] = append([]byte(nil), val...)
	return nil
}

// WriteBurst only reaches the unhooked Put above, so the closure walk finds
// no site; a second independent finding.
func (s *NakedStore) WriteBurst(ctx context.Context, keys []string) error { // want "faultsite: exported mutating operation NakedStore.WriteBurst has no faultinject site"
	for _, k := range keys {
		if err := s.Put(ctx, k, nil); err != nil {
			return err
		}
	}
	return nil
}

// HookedStore consults the plan before mutating; compliant.
type HookedStore struct {
	faults  *faultinject.Plan
	objects map[string][]byte
}

func (s *HookedStore) Put(ctx context.Context, key string, val []byte) error {
	if err := s.faults.Check(faultinject.ObjPut, key); err != nil {
		return err
	}
	if s.objects == nil {
		s.objects = make(map[string][]byte)
	}
	s.objects[key] = append([]byte(nil), val...)
	return nil
}

// Delete routes through an unexported helper; the transitive closure still
// reaches the hook, so it is compliant.
func (s *HookedStore) Delete(ctx context.Context, key string) error {
	return s.remove(ctx, key)
}

func (s *HookedStore) remove(_ context.Context, key string) error {
	if err := s.faults.Check(faultinject.ObjDelete, key); err != nil {
		return err
	}
	delete(s.objects, key)
	return nil
}

// Mirror delegates the mutation to the real objstore boundary, whose own
// faultsite obligations guarantee the hook; compliant.
type Mirror struct {
	inner upstream.Store
}

func (m *Mirror) Put(ctx context.Context, key string, val []byte) error {
	return m.inner.Put(ctx, key, val)
}

// Metrics-style accessors share mutating name prefixes but take no context;
// they are reads, not operations, and must not be flagged.
type Metrics struct {
	puts int
}

func (m *Metrics) Puts() int { return m.puts }

// Spooler checks the plan only on a goroutine that Put starts: the closure
// walk follows the go statement into flush, so Put is compliant.
type Spooler struct {
	faults *faultinject.Plan
}

func (s *Spooler) Put(ctx context.Context, key string, val []byte) error {
	done := make(chan error, 1)
	go s.flush(key, done)
	return <-done
}

func (s *Spooler) flush(key string, done chan<- error) {
	done <- s.faults.Check(faultinject.ObjPut, key)
}

// remover is a same-package interface. The closure walk does not resolve
// dispatch, so the hook behind hookedRemover does not cover Indirect.Delete.
type remover interface {
	remove(key string) error
}

type hookedRemover struct {
	faults *faultinject.Plan
}

func (h *hookedRemover) remove(key string) error {
	return h.faults.Check(faultinject.ObjDelete, key)
}

// Indirect reaches a hook only through the remover interface: a finding.
type Indirect struct {
	r remover
}

func (s *Indirect) Delete(ctx context.Context, key string) error { // want "faultsite: exported mutating operation Indirect.Delete has no faultinject site"
	return s.r.remove(key)
}
