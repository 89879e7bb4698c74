package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// runConfig is one run: one workload, one seed, traced or not.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	SF       float64
	// SetupReps is how many times an untraced run sets up; setup_s is their
	// median, and the last set-up is the one measured.
	SetupReps int
	// ProbeBudget is the wall time each kernel probe may take.
	ProbeBudget time.Duration
	// record, when non-nil, collects golden values instead of checking them.
	record *goldenSet
}

// runResult is one run's outcome, as stored in a results file.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

func (c runConfig) dur() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// runOne executes one run. A non-nil error means the run could not be made
// at all; wrong results are reported in the runResult.
func runOne(ctx context.Context, cfg runConfig) (*runResult, error) {
	ds, err := generate(ctx, cfg.SF)
	if err != nil {
		return nil, err
	}
	args := workloadArgs{ds: ds, seed: cfg.Seed, record: cfg.record}
	if cfg.record == nil {
		if args.golden, err = loadGolden(cfg.SF); err != nil {
			return nil, err
		}
	}
	res := &runResult{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Seconds: cfg.Seconds}
	var (
		vals map[string]float64
		ns   map[string]int
		defs []metricDef
	)
	if cfg.Trace {
		defs = perLayer
		vals, err = runTraced(ctx, cfg, args, res)
	} else {
		defs = endToEnd
		vals, ns, err = runPlain(ctx, cfg, args, res)
	}
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = fill(defs, vals, ns); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func (r *runResult) absorb(s *sample) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.Problems = append(r.Problems, s.problems...)
}

// heapLiveMiB forces a collection and reports what survives it.
func heapLiveMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runPlain measures the end-to-end metrics, with no decorator, registry or
// tracer anywhere in the env.
func runPlain(ctx context.Context, cfg runConfig, args workloadArgs, res *runResult) (map[string]float64, map[string]int, error) {
	args.dur = cfg.dur()
	var (
		w      workload
		setups []float64
	)
	for i := 0; i < max(cfg.SetupReps, 1); i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, err
			}
		}
		var err error
		if w, err = newWorkload(cfg.Workload, args); err != nil {
			return nil, nil, err
		}
		before := hostKernel()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		took := time.Since(start) + args.ds.genDur
		setups = append(setups, took.Seconds()*speedFactor((before+hostKernel())/2))
	}
	defer w.close() // the run is over; a drain error changes nothing it reports

	runtime.GC()
	s, err := w.timed(ctx, args.dur, nil)
	if err != nil {
		return nil, nil, err
	}
	heap := heapLiveMiB()
	runtime.KeepAlive(w)
	res.absorb(s)
	r := w.roles(s)
	vals := map[string]float64{
		"op_p50_ms": r.opP50, "op_slow_ms": r.opSlow, "query_ms": r.query,
		"heap_live_mb": heap, "setup_s": median(setups),
	}
	ns := map[string]int{"op_p50_ms": r.n, "setup_s": len(setups)}
	return vals, ns, nil
}

// runTraced measures the per-layer metrics: half the window untraced in a
// plain env (the reference for the tracing overhead and the source of the
// workload.* wall figures), half traced in an env whose injectable boundaries
// are wrapped, then the kernel probes.
func runTraced(ctx context.Context, cfg runConfig, args workloadArgs, res *runResult) (map[string]float64, error) {
	args.dur = cfg.dur() / 2
	open := func(traced bool) (workload, error) {
		a := args
		a.traced = traced
		w, err := newWorkload(cfg.Workload, a)
		if err != nil {
			return nil, err
		}
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		return w, nil
	}
	plain, err := open(false)
	if err != nil {
		return nil, err
	}
	defer plain.close() // the run is over; a drain error changes nothing it reports
	traced, err := open(true)
	if err != nil {
		return nil, err
	}
	defer traced.close() // the run is over; a drain error changes nothing it reports

	runtime.GC()
	sPlain, err := plain.timed(ctx, args.dur, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	obs := newObserver()
	sTraced, err := traced.timed(ctx, args.dur, obs)
	if err != nil {
		return nil, err
	}
	res.absorb(sPlain)
	res.absorb(sTraced)

	vals := obs.metrics()
	for k, v := range traced.layerMetrics(sPlain, sTraced) {
		vals[k] = v
	}
	if base := plain.roles(sPlain).opP50; base > 0 {
		vals["trace.overhead_pct"] = 100 * (traced.roles(sTraced).opP50/base - 1)
	}
	vals["host.kernel_ms"] = median(sTraced.series[hostKernelSeries])

	// One garbage collection after the run, on the traced env.
	te := traced.probeEnv()
	deletes := te.store.Metrics().Deletes()
	start := time.Now()
	if err := te.db.CollectGarbage(ctx); err != nil {
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf("collect garbage: %v", err))
	}
	vals["txn.gc_ms"] = msOf(time.Since(start))
	vals["txn.gc_deleted_objects"] = float64(te.store.Metrics().Deletes() - deletes)

	probes, problems := runProbes(ctx, plain.probeEnv(), args.ds, cfg.ProbeBudget)
	for k, v := range probes {
		vals[k] = v
	}
	res.Failed += len(problems)
	res.Problems = append(res.Problems, problems...)
	return vals, nil
}
