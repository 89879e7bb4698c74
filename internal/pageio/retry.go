package pageio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cloudiq/internal/iomodel"
	"cloudiq/internal/objstore"
	"cloudiq/internal/trace"
)

// ErrExhausted is wrapped into every failure that burned through all retry
// attempts. Match it with errors.Is.
var ErrExhausted = errors.New("pageio: retries exhausted")

// Policy configures the Retry middleware, the paper's retry-until-found
// discipline (§3): under eventual consistency a freshly written key may not
// be visible yet, so reads that miss are retried with capped exponential
// backoff; writes are retried on any error because the key is never reused
// (never-write-twice makes write retries idempotent).
type Policy struct {
	// ReadAttempts and WriteAttempts bound the total tries per operation
	// (minimum 1 each).
	ReadAttempts  int
	WriteAttempts int

	// Delay is the first backoff; it doubles per retry up to Cap. A zero Cap
	// leaves the backoff uncapped.
	Delay time.Duration
	Cap   time.Duration

	// Scale charges simulated time for each backoff. Nil skips sleeping,
	// which keeps unit tests instant.
	Scale *iomodel.Scale

	// Pool bounds the fan-out of batch operations, which retry each item
	// independently. Nil runs batch items sequentially.
	Pool *WorkPool
}

// retryRead is the read policy: a key that is not there yet is the only read
// failure eventual consistency explains; anything else surfaces at once.
func retryRead(err error) bool {
	return errors.Is(err, objstore.ErrNotFound)
}

func (p Policy) sleep(d time.Duration) {
	if p.Scale != nil {
		p.Scale.Sleep(d)
	}
}

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

// backoff sleeps the current delay and returns the next one, doubled and
// capped.
func (r *retry) backoff(d time.Duration) time.Duration {
	r.p.sleep(d)
	d *= 2
	if r.p.Cap > 0 && d > r.p.Cap {
		d = r.p.Cap
	}
	return d
}

// ctxAborted reports whether err is the operation's own cancellation or
// deadline. Retrying such an error burns the remaining attempt budget
// sleeping and then masks the ctx error behind ErrExhausted, so the retry
// loops surface it immediately. The returned error is checked — not just
// ctx.Err() between attempts — because a handler may observe the deadline
// while this middleware's own ctx check races ahead of it.
func ctxAborted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// noteRetries annotates the context's span once an operation needed more
// than one attempt.
func noteRetries(ctx context.Context, attempts int, backoff time.Duration) {
	if attempts <= 1 {
		return
	}
	sp := trace.From(ctx)
	sp.AddInt("retry.attempts", int64(attempts))
	sp.AddInt("retry.backoff_ns", int64(backoff))
}

func (r *retry) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	delay := r.p.Delay
	var err error
	var slept time.Duration
	attempts := 0
	for attempt := 0; attempt < r.p.ReadAttempts; attempt++ {
		if attempt > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			slept += delay
			delay = r.backoff(delay)
		}
		attempts++
		var data []byte
		data, err = r.next.ReadPage(ctx, ref)
		if err == nil {
			noteRetries(ctx, attempts, slept)
			return data, nil
		}
		if ctxAborted(err) || !retryRead(err) {
			return nil, err
		}
	}
	noteRetries(ctx, attempts, slept)
	if r.p.ReadAttempts == 1 {
		return nil, err
	}
	return nil, fmt.Errorf("%w: read %s after %d attempts: %w",
		ErrExhausted, ref.Detail(), r.p.ReadAttempts, err)
}

// retryWrite runs op under the write-retry policy shared by WritePage and
// Delete: both are idempotent under the never-write-twice discipline, so
// re-issuing either against a throttled or flaky store is safe.
func (r *retry) retryWrite(ctx context.Context, verb string, detail func() string, op func() error) error {
	delay := r.p.Delay
	var err error
	var slept time.Duration
	attempts := 0
	for attempt := 0; attempt < r.p.WriteAttempts; attempt++ {
		if attempt > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			slept += delay
			delay = r.backoff(delay)
		}
		attempts++
		if err = op(); err == nil {
			noteRetries(ctx, attempts, slept)
			return nil
		}
		if ctxAborted(err) {
			return err
		}
	}
	noteRetries(ctx, attempts, slept)
	if r.p.WriteAttempts == 1 {
		return err
	}
	return fmt.Errorf("%w: %s %s after %d attempts: %w",
		ErrExhausted, verb, detail(), r.p.WriteAttempts, err)
}

func (r *retry) WritePage(ctx context.Context, req WriteReq) error {
	return r.retryWrite(ctx, "write", req.Ref.Detail, func() error {
		return r.next.WritePage(ctx, req)
	})
}

// Delete shares the write budget: a GC or drop delete against a store in a
// throttling brown-out must recover the same way writes do, and deleting an
// already-deleted key is a no-op at every terminal.
func (r *retry) Delete(ctx context.Context, ref Ref) error {
	return r.retryWrite(ctx, "delete", ref.Detail, func() error {
		return r.next.Delete(ctx, ref)
	})
}

// ReadBatch retries each item independently through ReadPage so one slow key
// (an eventual-consistency straggler) cannot fail its neighbours.
func (r *retry) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	errs := r.p.Pool.Do(ctx, len(refs), func(i int) error {
		data, err := r.ReadPage(ctx, refs[i])
		if err != nil {
			return err
		}
		out[i] = data
		return nil
	})
	return out, batchErr(errs)
}

func (r *retry) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	errs := r.p.Pool.Do(ctx, len(reqs), func(i int) error {
		return r.WritePage(ctx, reqs[i])
	})
	return batchErr(errs)
}
