package pageio

import (
	"context"
	"errors"
	"fmt"

	"cloudiq/internal/objstore"
	"cloudiq/internal/trace"
)

// ErrExhausted is wrapped into every failure that burned through all retry
// attempts. Match it with errors.Is.
var ErrExhausted = errors.New("pageio: retries exhausted")

// Policy configures the Retry middleware, the paper's retry-until-found
// discipline (§3): under eventual consistency a freshly written key may not
// be visible yet, so reads that miss are retried at once, up to a bounded
// number of attempts; writes are retried on any error because the key is
// never reused (never-write-twice makes write retries idempotent). There is
// no backoff: latency is modelled by the stores and devices, not here.
type Policy struct {
	// ReadAttempts and WriteAttempts bound the total tries per operation
	// (minimum 1 each).
	ReadAttempts  int
	WriteAttempts int

	// Pool bounds the fan-out of batch operations, which retry each item
	// independently. Nil runs batch items sequentially.
	Pool *WorkPool
}

// retryRead is the read policy: a key that is not there yet is the only read
// failure eventual consistency explains; anything else surfaces at once.
func retryRead(err error) bool {
	return errors.Is(err, objstore.ErrNotFound)
}

// retryWrite is the write policy shared by WritePage and Delete: both are
// idempotent under the never-write-twice discipline, so re-issuing either
// against a throttled or flaky store is safe whatever the error.
func retryWrite(error) bool { return true }

// Retry returns the retry middleware for p.
func Retry(p Policy) Middleware {
	if p.ReadAttempts < 1 {
		p.ReadAttempts = 1
	}
	if p.WriteAttempts < 1 {
		p.WriteAttempts = 1
	}
	return func(next Handler) Handler {
		return &retry{next: next, p: p}
	}
}

type retry struct {
	next Handler
	p    Policy
}

// ctxAborted reports whether err is the operation's own cancellation or
// deadline. Retrying such an error burns the remaining attempt budget and
// then masks the ctx error behind ErrExhausted, so the retry loop surfaces
// it immediately. The returned error is checked — not just
// ctx.Err() between attempts — because a handler may observe the deadline
// while this middleware's own ctx check races ahead of it.
func ctxAborted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// noteRetries annotates the context's span once an operation needed more
// than one attempt.
func noteRetries(ctx context.Context, attempts int) {
	if attempts > 1 {
		trace.From(ctx).AddInt("retry.attempts", int64(attempts))
	}
}

// attempt is the one retry loop: it runs op up to attempts times and stops
// at once on success, on the operation's own cancellation, or on an error
// retryable rejects. An operation that used up its budget fails with
// ErrExhausted naming what it was, unless the budget was a single attempt,
// which returns the raw error.
func (r *retry) attempt(ctx context.Context, attempts int, retryable func(error) bool, what func() string, op func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if err = op(); err == nil {
			noteRetries(ctx, i+1)
			return nil
		}
		if ctxAborted(err) || !retryable(err) {
			return err
		}
	}
	noteRetries(ctx, attempts)
	if attempts == 1 {
		return err
	}
	return fmt.Errorf("%w: %s after %d attempts: %w", ErrExhausted, what(), attempts, err)
}

func (r *retry) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	var data []byte
	err := r.attempt(ctx, r.p.ReadAttempts, retryRead,
		func() string { return "read " + ref.Detail() },
		func() (err error) {
			data, err = r.next.ReadPage(ctx, ref)
			return err
		})
	if err != nil {
		return nil, err
	}
	return data, nil
}

func (r *retry) WritePage(ctx context.Context, req WriteReq) error {
	return r.attempt(ctx, r.p.WriteAttempts, retryWrite,
		func() string { return "write " + req.Ref.Detail() },
		func() error { return r.next.WritePage(ctx, req) })
}

// Delete shares the write budget: a GC or drop delete against a store in a
// throttling brown-out must recover the same way writes do, and deleting an
// already-deleted key is a no-op at every terminal.
func (r *retry) Delete(ctx context.Context, ref Ref) error {
	return r.attempt(ctx, r.p.WriteAttempts, retryWrite,
		func() string { return "delete " + ref.Detail() },
		func() error { return r.next.Delete(ctx, ref) })
}

// ReadBatch retries each item independently through ReadPage so one slow key
// (an eventual-consistency straggler) cannot fail its neighbours.
func (r *retry) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	return readEach(ctx, r.p.Pool, r, refs)
}

func (r *retry) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	return writeEach(ctx, r.p.Pool, r, reqs)
}
