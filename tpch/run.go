package tpch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// QueryResult records one query execution.
type QueryResult struct {
	Query   int
	Rows    int
	Elapsed time.Duration
}

// PowerRun executes Q1–Q22 sequentially (the paper's power mode) and
// returns per-query results. Timings are wall clock, which under a scaled
// simulation corresponds to simulated time divided by the scale factor.
func PowerRun(ctx context.Context, conn *Conn) ([]QueryResult, error) {
	results := make([]QueryResult, 0, 22)
	for q := 1; q <= 22; q++ {
		start := time.Now()
		out, err := conn.Query(ctx, q)
		if err != nil {
			return results, fmt.Errorf("tpch: Q%d: %w", q, err)
		}
		results = append(results, QueryResult{Query: q, Rows: out.Rows(), Elapsed: time.Since(start)})
	}
	return results, nil
}

// Streams builds n pseudo-random permutations of the 22 queries (the
// paper's throughput mode uses 8), deterministic in seed.
func Streams(n int, seed int64) [][]int {
	r := rand.New(rand.NewSource(seed))
	streams := make([][]int, n)
	for i := range streams {
		perm := r.Perm(22)
		qs := make([]int, 22)
		for j, p := range perm {
			qs[j] = p + 1
		}
		streams[i] = qs
	}
	return streams
}

// RunStreams executes the given query streams concurrently, each against
// its own Conn (the paper balances streams across secondary nodes; conns
// may therefore belong to different database instances). It returns the
// total wall time.
func RunStreams(ctx context.Context, conns []*Conn, streams [][]int) (time.Duration, error) {
	if len(conns) == 0 {
		return 0, fmt.Errorf("tpch: no connections")
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(streams))
	for i, qs := range streams {
		conn := conns[i%len(conns)]
		wg.Add(1)
		go func(qs []int, conn *Conn) {
			defer wg.Done()
			for _, q := range qs {
				if _, err := conn.Query(ctx, q); err != nil {
					errs <- fmt.Errorf("tpch: stream query Q%d: %w", q, err)
					return
				}
			}
		}(qs, conn)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// GeoMean returns the geometric mean of the per-query times, the metric the
// paper reports for the 22-query suite.
func GeoMean(results []QueryResult) time.Duration {
	if len(results) == 0 {
		return 0
	}
	var logSum float64
	for _, r := range results {
		d := r.Elapsed
		if d <= 0 {
			d = time.Nanosecond
		}
		logSum += math.Log(float64(d))
	}
	return time.Duration(math.Exp(logSum / float64(len(results))))
}
