package coyote

import (
	"runtime"
	"sync"
)

// Point names one simulation job in a design-space sweep.
type Point struct {
	Name   string
	Kernel string
	Params Params
	Config Config
}

// PointResult pairs a Point with its outcome.
type PointResult struct {
	Point
	Result *Result
	Err    error
	// Cache records how a cached sweep satisfied this point — "hit",
	// "miss" or "coalesced" (see rcache.Status). Empty when the sweep
	// ran without a cache.
	Cache string
}

// Sweep runs a set of independent simulations concurrently on a fixed
// pool of `workers` goroutines and returns results in input order. Each
// simulation is deterministic regardless of how the sweep is scheduled, so
// parallelism changes only wall-clock time (and therefore the MIPS numbers
// — use serial runs when measuring simulator throughput itself;
// simulated-time metrics are unaffected). workers ≤ 0 means one worker per
// point.
//
// Points whose Config.Workers > 1 each spin up their own in-cycle worker
// pool inside Run. To keep the total host goroutine count (outer sweep
// workers × largest inner pool) at or below GOMAXPROCS, the outer pool is
// capped accordingly — a sweep of parallel simulations degrades toward
// running them one after another rather than oversubscribing the host with
// spinning pools.
//
//coyote:globalfree
func Sweep(points []Point, workers int) []PointResult {
	workers = capOuterWorkers(workers, len(points),
		maxInnerWorkers(points), runtime.GOMAXPROCS(0))
	return sweepWith(points, workers, func(p Point) (*Result, string, error) {
		res, err := RunKernel(p.Kernel, p.Params, p.Config)
		return res, "", err
	})
}

// SweepCached is Sweep with every point routed through the
// content-addressed result cache: repeat points (across sweeps,
// sessions, or CI runs sharing a cache directory) are served without
// simulating, and duplicate points inside one sweep — including
// concurrent in-flight duplicates — are single-flighted so they
// simulate exactly once and fan the result out. Each PointResult's
// Cache field records the outcome. A nil cache degrades to Sweep.
//
// Served results carry WallTime 0 and zeroed Par counters: only the
// deterministic committed state is cached (see internal/rcache), which
// is also why cached sweeps must never feed simulator-throughput (MIPS)
// measurements — cmd/fig3 bypasses the cache by construction.
//
//coyote:globalfree
func SweepCached(points []Point, workers int, c *ResultCache) []PointResult {
	if c == nil {
		return Sweep(points, workers)
	}
	workers = capOuterWorkers(workers, len(points),
		maxInnerWorkers(points), runtime.GOMAXPROCS(0))
	return sweepWith(points, workers, func(p Point) (*Result, string, error) {
		res, status, err := RunKernelCached(p.Kernel, p.Params, p.Config, c)
		if err != nil {
			return nil, "", err
		}
		return res, status.String(), nil
	})
}

// maxInnerWorkers returns the largest per-point in-cycle worker pool the
// sweep will instantiate (at least 1). A point's pool never exceeds its
// core count, mirroring core.System.startWorkers.
func maxInnerWorkers(points []Point) int {
	inner := 1
	for _, p := range points {
		w := p.Config.Workers
		if w > p.Config.Cores {
			w = p.Config.Cores
		}
		if w > inner {
			inner = w
		}
	}
	return inner
}

// capOuterWorkers bounds the sweep's own pool so outer × inner host
// goroutines never exceed procs. The cap only engages when some point
// actually runs an inner pool (inner > 1): classic single-threaded sweeps
// keep the historical "as many workers as requested" contract, which the
// scheduler already time-slices fine.
func capOuterWorkers(workers, npoints, inner, procs int) int {
	if workers <= 0 || workers > npoints {
		workers = npoints
	}
	if inner > 1 {
		if budget := procs / inner; workers > budget {
			workers = budget
		}
		if workers < 1 && npoints > 0 {
			workers = 1
		}
	}
	return workers
}

// sweepWith is Sweep with the per-point run function injected, so tests
// can observe scheduling without paying for real simulations. Exactly
// min(workers, len(points)) goroutines are started; they pull point
// indices from a shared channel, so a slow point never blocks the rest of
// the queue behind an idle worker. run's second return is the cache
// status recorded in PointResult.Cache ("" for uncached runs).
func sweepWith(points []Point, workers int, run func(Point) (*Result, string, error)) []PointResult {
	if workers <= 0 || workers > len(points) {
		workers = len(points)
	}
	results := make([]PointResult, len(points))
	if workers == 0 {
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				p := points[i]
				res, status, err := run(p)
				results[i] = PointResult{Point: p, Result: res, Err: err, Cache: status}
			}
		}()
	}
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}
