// Package pageio unifies the engine's storage I/O behind one typed request
// interface with composable middleware. Every page read or write issued by
// the buffer pool, the blockmap, the OCM, the table loader and the WAL flows
// through a Handler pipeline assembled from the stages in this package:
//
//	Meter("dbspace:x") -> Retry -> [cache] -> Meter("store:x") -> store
//	Meter("dbspace:y") -> Coalesce -> Meter("dev:y") -> device
//
// so there is exactly one place to batch, one place to retry, and one place
// to measure. Middleware composes http-style: a Middleware wraps a Handler
// and returns a Handler, and Chain applies them first-listed-outermost.
package pageio

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Ref names one page-sized unit of storage. A Ref is either an object-store
// reference (Key != "") or a block-device reference (Key == "", addressed by
// byte offset and length).
type Ref struct {
	Key string // object key, or "" for a block-device reference
	Off int64  // byte offset on the device (block refs only)
	Len int    // read length in bytes (block reads; writes use len(Data))
}

// IsBlock reports whether the ref addresses a block device.
func (r Ref) IsBlock() bool { return r.Key == "" }

// Detail renders the ref for error messages and spans.
func (r Ref) Detail() string {
	if r.IsBlock() {
		return strconv.FormatInt(r.Off, 10)
	}
	return r.Key
}

// WriteReq is one page write. Async marks write-back intent: a caching layer
// may acknowledge the write after staging it locally and upload later, while
// a synchronous write (Async=false) must be durable on the backing store
// when WritePage returns.
type WriteReq struct {
	Ref   Ref
	Data  []byte
	Async bool
}

// Handler is the uniform page-I/O interface. Batch operations are
// positional: ReadBatch returns one slice per ref (nil for failed items) and
// both batch calls report per-item failures through a *BatchError.
type Handler interface {
	ReadPage(ctx context.Context, ref Ref) ([]byte, error)
	WritePage(ctx context.Context, req WriteReq) error
	ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error)
	WriteBatch(ctx context.Context, reqs []WriteReq) error
	Delete(ctx context.Context, ref Ref) error
}

// Middleware wraps a Handler with one pipeline stage.
type Middleware func(Handler) Handler

// Chain composes middleware around a terminal handler. The first middleware
// listed becomes the outermost stage, so
//
//	Chain(store, Meter(reg, "dbspace"), Retry(p))
//
// meters every caller-visible operation and retries inside the meter.
func Chain(h Handler, mws ...Middleware) Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// BatchError reports per-item failures of a batch operation. Errs is aligned
// with the request slice: Errs[i] == nil means item i succeeded. A batch
// call returns nil (not an empty BatchError) when every item succeeds.
type BatchError struct {
	Errs []error
}

func (e *BatchError) Error() string {
	n := 0
	var first error
	for _, err := range e.Errs {
		if err != nil {
			n++
			if first == nil {
				first = err
			}
		}
	}
	if n == 1 {
		return fmt.Sprintf("pageio: 1 of %d batch items failed: %v", len(e.Errs), first)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pageio: %d of %d batch items failed:", n, len(e.Errs))
	for i, err := range e.Errs {
		if err != nil {
			fmt.Fprintf(&b, "\n\titem %d: %v", i, err)
		}
	}
	return b.String()
}

// Unwrap exposes the non-nil item errors so errors.Is and errors.As see
// through the batch.
func (e *BatchError) Unwrap() []error {
	var errs []error
	for _, err := range e.Errs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// batchErr folds a positional error slice into a batch result: nil when all
// items succeeded, otherwise a *BatchError carrying the slice.
func batchErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return &BatchError{Errs: errs}
		}
	}
	return nil
}

// ItemErrors expands a batch error into one error per item: nil yields all
// nils, a (possibly wrapped) *BatchError of matching length yields its
// positional slice, and any other error (a whole-batch failure) is
// replicated to every position.
func ItemErrors(err error, n int) []error {
	errs := make([]error, n)
	if err == nil {
		return errs
	}
	var be *BatchError
	if errors.As(err, &be) && len(be.Errs) == n {
		copy(errs, be.Errs)
		return errs
	}
	for i := range errs {
		errs[i] = err
	}
	return errs
}
