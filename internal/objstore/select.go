package objstore

// The store-side compute endpoint: an S3 Select-style operation that
// evaluates filter + projection + partial aggregation against stored encoded
// column segments and returns only the qualifying bytes. A plan's filter and
// aggregate inputs are expr.Node trees, evaluated here by the same kernel
// (internal/expr) the reader runs them through — which is why a pushdown
// result is byte-identical to a plain scan-then-filter.

import (
	"context"
	"errors"
	"fmt"

	"cloudiq/internal/column"
	"cloudiq/internal/deflate"
	"cloudiq/internal/expr"
	"cloudiq/internal/faultinject"
)

// ErrUnsupportedPlan reports that the store rejected a pushed-down plan: a
// tree the kernel refuses (expr.ErrInvalid — unknown operator, type mismatch,
// missing column), an aggregate without a mergeable partial state, or an
// encoding it cannot decode. Callers must fall back to plain segment reads.
var ErrUnsupportedPlan = errors.New("objstore: unsupported select plan")

// Selector is the optional compute capability of a store. MemStore
// implements it; stores without it force readers onto the plain read path.
type Selector interface {
	// Select evaluates req's plan against the named stored objects and
	// returns qualifying rows (or partial aggregate states). Visibility
	// follows Get: a not-yet-visible object answers ErrNotFound.
	Select(ctx context.Context, req SelectRequest) (*SelectResult, error)
}

// SelectCol names one stored column segment the plan reads: the column name
// the plan refers to it by, and the object key it is stored under.
type SelectCol struct {
	Name string
	Key  string
}

// SelectRequest is one pushdown call: the column objects of a single table
// segment plus the plan to evaluate over them.
type SelectRequest struct {
	// Cols are the column objects forming the segment. All must decode to
	// the same row count.
	Cols []SelectCol
	// Flate indicates the stored objects are DEFLATE-compressed page images
	// (buffer.FlateCodec); the store inflates before decoding.
	Flate bool
	// Plan is the computation to evaluate.
	Plan SelectPlan
}

// SelectPlan is filter + projection + optional partial aggregation.
// With Aggs empty the result is row-mode: the filtered rows of the Project
// columns, re-encoded. With Aggs set the result is one partial aggregate
// state per aggregate and Project is ignored.
type SelectPlan struct {
	// Filter, if non-nil, keeps rows where it evaluates non-zero (Int64).
	Filter *expr.Node
	// Project lists the column names to return in row mode.
	Project []string
	// Aggs, if non-empty, requests partial aggregation instead of rows.
	Aggs []PlanAgg
}

// PlanAgg is one partial aggregate: Func over Expr (nil for count(*)).
type PlanAgg struct {
	// Func must be mergeable (expr.AggFunc.Mergeable): count, sum, min, max.
	Func expr.AggFunc
	// Expr is the aggregate input; nil means count(*).
	Expr *expr.Node
}

// SelectResult is the store's answer to one SelectRequest.
type SelectResult struct {
	// Rows is the number of qualifying rows (row mode).
	Rows int
	// Cols holds the re-encoded qualifying rows, parallel to Plan.Project
	// (row mode).
	Cols [][]byte
	// Aggs holds one partial state per Plan.Aggs entry (aggregate mode).
	Aggs []expr.AggState
	// ScannedBytes is the stored bytes the select read to answer — what the
	// compute charge is billed on.
	ScannedBytes int64
	// ReturnedBytes is the bytes that crossed the network back to the
	// caller — what the transfer charge and NIC usage are billed on.
	ReturnedBytes int64
}

// unsupported wraps a reason into an ErrUnsupportedPlan error.
func unsupported(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnsupportedPlan, fmt.Sprintf(format, args...))
}

// evalSelect runs the plan against the decoded column vectors. raw holds the
// stored (possibly compressed) images parallel to req.Cols; the vectors are
// decoded from them.
func evalSelect(req SelectRequest, raw [][]byte) (*SelectResult, error) {
	res := &SelectResult{}
	cols := make(map[string]*column.Vector, len(req.Cols))
	n := -1
	for i, c := range req.Cols {
		res.ScannedBytes += int64(len(raw[i]))
		img := raw[i]
		if req.Flate {
			var err error
			if img, err = deflate.Decompress(img); err != nil {
				return nil, unsupported("inflate %q: %v", c.Key, err)
			}
		}
		v, err := column.DecodeSegment(img)
		if err != nil {
			return nil, unsupported("decode %q: %v", c.Key, err)
		}
		if n >= 0 && v.Len() != n {
			return nil, unsupported("column %q has %d rows, want %d", c.Name, v.Len(), n)
		}
		n = v.Len()
		cols[c.Name] = v
	}
	n = max(n, 0)
	env := expr.Vectors{Cols: cols, N: n}

	rows := expr.AllRows(n)
	if req.Plan.Filter != nil {
		var err error
		if rows, err = req.Plan.Filter.Select(env, rows); err != nil {
			return nil, fmt.Errorf("%w: filter: %w", ErrUnsupportedPlan, err)
		}
	}

	if len(req.Plan.Aggs) > 0 {
		// Aggregate mode: fold the qualifying rows into partial states.
		// Inputs are evaluated over the filtered mini-batch so constant
		// broadcasts size correctly.
		fenv := expr.Vectors{Cols: make(map[string]*column.Vector, len(cols)), N: len(rows)}
		for name, v := range cols {
			fenv.Cols[name] = v.Gather(rows)
		}
		res.Aggs = make([]expr.AggState, len(req.Plan.Aggs))
		group0 := make([]int32, len(rows)) // one global group
		for i, a := range req.Plan.Aggs {
			if !a.Func.Mergeable() {
				return nil, unsupported("aggregate %d has no mergeable partial state", a.Func)
			}
			input, err := expr.AggInput(a.Func, a.Expr, fenv)
			if err != nil {
				return nil, fmt.Errorf("%w: aggregate %d: %w", ErrUnsupportedPlan, i, err)
			}
			fold := expr.Aggregator{Func: a.Func}
			fold.Fold(input, group0, 1)
			res.Aggs[i] = fold.States[0]
			// One partial state is ~64 bytes on the wire.
			res.ReturnedBytes += 64
		}
		res.Rows = len(rows)
		return res, nil
	}

	// Row mode: re-encode the qualifying rows of the projected columns.
	res.Rows = len(rows)
	res.Cols = make([][]byte, len(req.Plan.Project))
	for i, name := range req.Plan.Project {
		v, ok := cols[name]
		if !ok {
			return nil, unsupported("projected column %q not in request", name)
		}
		enc := column.EncodeSegment(v.Gather(rows))
		res.Cols[i] = enc
		res.ReturnedBytes += int64(len(enc))
	}
	return res, nil
}

var _ Selector = (*MemStore)(nil)

// Select implements Selector: the simulated store's compute endpoint. The
// request model follows Get per column object — fault injection at the
// dedicated obj.select site, per-prefix throttling, and the same visibility
// rules (a not-yet-visible column answers ErrNotFound so callers retry or
// fall back). Latency is charged on the bytes scanned; the network and
// bandwidth resources are charged only on the bytes returned — that
// asymmetry is the entire point of pushdown.
func (s *MemStore) Select(ctx context.Context, req SelectRequest) (*SelectResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.metrics.selects.Add(1)
	detail := ""
	if len(req.Cols) > 0 {
		detail = req.Cols[0].Key
	}
	if err := s.inject("select", faultinject.ObjSelect, detail); err != nil {
		return nil, err
	}
	for _, c := range req.Cols {
		s.throttlePrefix(c.Key)
	}

	raw := make([][]byte, len(req.Cols))
	s.mu.Lock()
	for i, c := range req.Cols {
		o, ok := s.objects[c.Key]
		if !ok {
			s.mu.Unlock()
			s.metrics.getMisses.Add(1)
			s.scale.Sleep(s.cfg.ReadLatency.Duration(0, s.rnd))
			return nil, fmt.Errorf("select %q: %w", c.Key, ErrNotFound)
		}
		if o.missLeft > 0 {
			o.missLeft--
			s.mu.Unlock()
			s.metrics.getMisses.Add(1)
			s.scale.Sleep(s.cfg.ReadLatency.Duration(0, s.rnd))
			return nil, fmt.Errorf("select %q: %w", c.Key, ErrNotFound)
		}
		version := o.versions[len(o.versions)-1]
		if o.staleLeft > 0 && len(o.versions) > 1 {
			o.staleLeft--
			version = o.versions[len(o.versions)-2]
		}
		raw[i] = version
	}
	s.mu.Unlock()

	res, err := evalSelect(req, raw)
	if err != nil {
		// The store scanned nothing billable: plan rejection is answered
		// from object metadata before any evaluation completes.
		return nil, err
	}

	// Service time is driven by the bytes the store itself had to scan;
	// only the result crosses the shared network.
	s.scale.Sleep(s.cfg.ReadLatency.Duration(int(res.ScannedBytes), s.rnd))
	s.cfg.Network.Acquire(int(res.ReturnedBytes))
	s.metrics.bytesOut.Add(res.ReturnedBytes)
	s.metrics.selScanned.Add(res.ScannedBytes)
	s.metrics.selReturned.Add(res.ReturnedBytes)
	return res, nil
}
