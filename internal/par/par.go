// Package par is the bounded-worker-pool primitive shared by the
// replication runner and the sweep orchestrator: fan a fixed index space
// out over up to P goroutines with results written by index, so outputs
// (and the reported error) are deterministic regardless of completion
// order.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Package-level pool accounting: units run, unit errors, and the
// summed wall time spent inside fn across all workers (busy time). The
// counters are process-wide — the pool is a shared primitive — and feed
// the server's /metrics endpoint. Two atomic adds and two clock reads
// per unit; a unit is a whole replication or sweep point, so the cost
// is noise.
var (
	poolUnits  atomic.Int64
	poolErrors atomic.Int64
	poolBusyNs atomic.Int64
)

// PoolStats is a snapshot of the process-wide pool counters.
type PoolStats struct {
	// Units is the number of fn invocations completed.
	Units int64
	// Errors is how many of them returned an error.
	Errors int64
	// Busy is the summed wall time spent inside fn across all workers;
	// with uptime and a worker count it yields pool utilisation.
	Busy time.Duration
}

// Stats returns the current process-wide pool counters.
func Stats() PoolStats {
	return PoolStats{
		Units:  poolUnits.Load(),
		Errors: poolErrors.Load(),
		Busy:   time.Duration(poolBusyNs.Load()),
	}
}

// runUnit executes one unit with accounting.
func runUnit(fn func(i int) error, i int) error {
	t0 := time.Now()
	err := fn(i)
	poolBusyNs.Add(int64(time.Since(t0)))
	poolUnits.Add(1)
	if err != nil {
		poolErrors.Add(1)
	}
	return err
}

// ForEach runs fn(i) for every i in [0, n) on up to parallelism
// concurrent workers with no cancellation: ForEachCtx with a background
// context.
func ForEach(n, parallelism int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, parallelism, fn)
}

// ForEachCtx runs fn(i) for every i in [0, n) on up to parallelism
// concurrent workers. parallelism <= 0 means runtime.NumCPU(). With
// parallelism 1 the calls run sequentially on the calling goroutine.
//
// Workers claim units from a shared atomic counter, so units are claimed
// in increasing index order and a claimed unit always runs. The pool
// aborts promptly: after the first failure (or the context's
// cancellation) no worker claims another unit, so a failing or cancelled
// batch does not run to the end before reporting. Units already claimed
// run to completion — cancellation lands between units, never inside one
// — and every worker has exited before ForEachCtx returns.
//
// The returned error is deterministic for a deterministic fn: every index
// below a failing one was claimed before it and so runs, which makes the
// lowest-index failure always run and always be the error reported. When
// no unit failed, a cancelled context reports ctx.Err().
func ForEachCtx(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runUnit(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64 // next unclaimed index
		failed   atomic.Bool
		mu       sync.Mutex // guards errIdx and firstErr
		errIdx   = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := runUnit(fn, i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Workers composes an outer worker-pool budget with per-unit inner
// concurrency: it returns how many pool workers to run when each unit
// itself spawns inner goroutines (for example one sharded replication
// running inner shards). parallelism <= 0 means runtime.NumCPU(), inner
// < 1 is treated as 1, and the result is never below 1 — so the total
// goroutine budget stays close to parallelism without starving the pool.
func Workers(parallelism, inner int) int {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if inner < 1 {
		inner = 1
	}
	if w := parallelism / inner; w > 1 {
		return w
	}
	return 1
}
