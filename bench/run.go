package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	coyote "github.com/coyote-sim/coyote"
	"github.com/coyote-sim/coyote/internal/rcache"
)

// outcome is what one execution of a point must reproduce on every pass.
type outcome struct {
	cycles, instr uint64
}

// runner executes passes over one workload's points, collecting host-time
// samples per unit and counting every correctness check.
type runner struct {
	w   *workload
	pts []point
	dir string  // scratch directory for on-disk result caches
	tr  *tracer // nil unless this is a traced run

	setup samples // prepareSteps units per point; cached mode: one per point + one for opening the cache
	wall  samples // detailed: sliceCount+1 units per point; else one per point

	ref       []outcome // per point, fixed by the warm-up pass
	refSet    bool
	attempted int
	failed    int
	failures  []string

	// The last pass's products, kept for the checks and metrics that
	// follow the timed passes.
	cache    *coyote.ResultCache    // cached mode
	cacheDir string                 // cached mode
	cold     []*coyote.Result       // cached mode: results of the cold lookups
	sampled  []*coyote.SampleResult // sampled mode
}

func newRunner(w *workload, seed int64, tiny bool, dir string, tr *tracer) *runner {
	pts := w.points(seed, tiny)
	return &runner{w: w, pts: pts, dir: dir, tr: tr, ref: make([]outcome, len(pts))}
}

// collectorOff switches the garbage collector off until the returned
// function is called. While points are prepared and run the benchmark
// collects only between points, by hand. The floor would discard the
// collector's time anyway (fig3-spmv: 0.862 s off, 0.869 s on), and with
// it off the process's peak RSS is what the largest point keeps plus what
// it throws away, which repeats to 0.1 %; under the concurrent collector
// it moved by 7-13 % from run to run.
func collectorOff() (restore func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// fail records one failed operation.
func (r *runner) fail(pt point, format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, pt.id+": "+fmt.Sprintf(format, args...))
}

// timed runs fn as one span and returns its duration in seconds.
func (r *runner) timed(name, pointID string, fn func()) float64 {
	id := r.tr.begin(name, pointID)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	r.tr.end(id)
	return d
}

// prepareSteps is how many set-up units a point's preparation is timed
// as: assembling, building the system, generating the inputs.
const prepareSteps = 3

// prepare builds a ready-to-run system for pt, step for step what
// coyote.PrepareKernel does, and records each step's time as a sample of
// its own set-up unit.
func (r *runner) prepare(i int, pt point) (*coyote.System, error) {
	id := r.tr.begin("prepare", pt.id)
	defer r.tr.end(id)
	k, err := coyote.GetKernel(pt.kernel)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", pt.id, err)
	}
	var prog *coyote.Program
	var sys *coyote.System
	assemble := r.timed("Assemble", pt.id, func() { prog, err = coyote.Assemble(k.Source) })
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", pt.id, err)
	}
	build := r.timed("NewSystem", pt.id, func() {
		if sys, err = coyote.NewSystem(pt.cfg); err == nil {
			sys.LoadProgram(prog)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", pt.id, err)
	}
	setup := r.timed("Setup", pt.id, func() { k.Setup(sys.Mem, sys.MustSymbol("args"), pt.params) })
	for j, d := range [prepareSteps]float64{assemble, build, setup} {
		r.setup.add(i*prepareSteps+j, d)
	}
	return sys, nil
}

// measureSetup times every point's preparation once more; the prepared
// systems are discarded. For cached workloads preparation is what
// cmd/explore does before it simulates: open the cache and derive each
// point's key.
func (r *runner) measureSetup() error {
	defer collectorOff()()
	if r.w.mode == cached {
		if _, err := r.openCache(); err != nil {
			return err
		}
		for i, pt := range r.pts {
			var err error
			r.setup.add(i, r.timed("KeyForPoint", pt.id, func() {
				_, err = coyote.KeyForPoint(pt.kernel, pt.params, pt.cfg)
			}))
			if err != nil {
				return fmt.Errorf("%s: key: %w", pt.id, err)
			}
		}
		return nil
	}
	for i, pt := range r.pts {
		if _, err := r.prepare(i, pt); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}

// openCache replaces the runner's result cache with a fresh, empty
// on-disk one and records the time as a set-up sample of the unit after
// the last point.
func (r *runner) openCache() (*coyote.ResultCache, error) {
	if err := r.closeCache(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.dir, "rcache-")
	if err != nil {
		return nil, err
	}
	r.cacheDir = dir
	r.setup.add(len(r.pts), r.timed("OpenResultCache", "", func() {
		r.cache, err = coyote.OpenResultCache(dir, 0)
	}))
	return r.cache, err
}

// closeCache deletes the current on-disk cache, if any.
func (r *runner) closeCache() error {
	if r.cacheDir == "" {
		return nil
	}
	dir := r.cacheDir
	r.cache, r.cacheDir = nil, ""
	return os.RemoveAll(dir)
}

// check compares one execution's outcome with the warm-up pass's; the
// warm-up pass itself defines the reference.
func (r *runner) check(i int, pt point, got outcome) {
	if !r.refSet {
		r.ref[i] = got
		return
	}
	if got != r.ref[i] {
		r.fail(pt, "cycles/instr %d/%d differ from the warm-up pass's %d/%d",
			got.cycles, got.instr, r.ref[i].cycles, r.ref[i].instr)
	}
}

// pass executes every point once. The first call is the untimed warm-up
// pass that fixes each point's reference outcome; later calls add one
// sample to every wall unit.
func (r *runner) pass() error {
	defer collectorOff()()
	id := r.tr.begin("pass", "")
	defer r.tr.end(id)
	var err error
	switch r.w.mode {
	case detailed:
		err = r.detailedPass()
	case cached:
		err = r.cachedPass()
	case sampled:
		err = r.sampledPass()
	}
	r.refSet = true
	return err
}

// detailedPass prepares, simulates and verifies each point: unsliced on
// the warm-up pass, sliced and timed afterwards, when it must land on the
// same final cycle with the same instruction count.
func (r *runner) detailedPass() error {
	warm := !r.refSet
	for i, pt := range r.pts {
		pid := r.tr.begin("point", pt.id)
		sys, err := r.prepare(i, pt)
		if err != nil {
			return err
		}
		r.attempted++
		if warm {
			r.finish(i, pt, sys, r.wholeRun(i, pt, sys, nil))
		} else {
			r.slicedRun(i, pt, sys)
		}
		r.tr.end(pid)
		runtime.GC()
	}
	return nil
}

// wholeRun simulates a prepared point to completion in one piece, as the
// warm-up does. The point's outcome is taken at the end of its timed
// part — the end of its window, or of the run — where at, if not nil, is
// also called with the Result of that moment.
func (r *runner) wholeRun(i int, pt point, sys *coyote.System, at func(*coyote.Result)) error {
	var err error
	r.timed("Run", pt.id, func() {
		var res *coyote.Result
		if pt.window > 0 {
			res, _, err = sys.RunTo(pt.window)
		} else {
			res, err = sys.Run()
		}
		if err != nil {
			return
		}
		r.check(i, pt, outcome{res.Cycles, res.Instructions})
		if at != nil {
			at(res)
		}
		if pt.window > 0 {
			_, err = sys.Run()
		}
	})
	return err
}

// finish verifies a completed point and returns the time verification
// took; runErr is what simulating it returned.
func (r *runner) finish(i int, pt point, sys *coyote.System, runErr error) float64 {
	if runErr != nil {
		r.fail(pt, "run: %v", runErr)
		return 0
	}
	var err error
	d := r.timed("VerifyKernel", pt.id, func() { err = coyote.VerifyKernel(sys, pt.kernel, pt.params) })
	if err != nil {
		r.fail(pt, "verify: %v", err)
	}
	return d
}

// slicedRun simulates a prepared point as sliceCount timed RunTo units
// of equal simulated length, up to the end of its window or of the run,
// then verifies it as one more unit. A windowed point stops unfinished,
// so it has no outputs to verify; its last unit stays, at zero, so that
// every point has the same number of units.
func (r *runner) slicedRun(i int, pt point, sys *coyote.System) {
	base := i * (sliceCount + 1)
	end := r.ref[i].cycles
	step := (end + sliceCount - 1) / sliceCount
	var res *coyote.Result
	var err error
	for k := uint64(1); k <= sliceCount && err == nil; k++ {
		r.wall.add(base+int(k)-1, r.timed("RunTo", pt.id, func() {
			if k < sliceCount || pt.window > 0 {
				res, _, err = sys.RunTo(min(k*step, end))
			} else {
				res, err = sys.Run()
			}
		}))
	}
	if err == nil {
		r.check(i, pt, outcome{res.Cycles, res.Instructions})
	}
	if pt.window > 0 && err == nil {
		r.wall.add(base+sliceCount, 0)
		return
	}
	r.wall.add(base+sliceCount, r.finish(i, pt, sys, err))
}

// cachedPass routes every point through RunKernelCached against a fresh
// on-disk cache, so every lookup is a cold miss that simulates, verifies
// and stores.
func (r *runner) cachedPass() error {
	warm := !r.refSet
	c, err := r.openCache()
	if err != nil {
		return err
	}
	r.cold = make([]*coyote.Result, len(r.pts))
	for i, pt := range r.pts {
		r.attempted++
		var res *coyote.Result
		var st coyote.CacheStatus
		d := r.timed("RunKernelCached", pt.id, func() {
			res, st, err = coyote.RunKernelCached(pt.kernel, pt.params, pt.cfg, c)
		})
		if !warm {
			r.wall.add(i, d)
		}
		switch {
		case err != nil:
			r.fail(pt, "run: %v", err)
		case st != coyote.CacheMiss:
			r.fail(pt, "cold lookup was a %v, want a miss", st)
		default:
			r.check(i, pt, outcome{res.Cycles, res.Instructions})
			r.cold[i] = res
		}
		runtime.GC()
	}
	return nil
}

// warmCheck ends a cached workload's passes (it does nothing for the
// other modes): it repeats the last pass against the cache that pass
// filled, through a second cache handle so the lookups reach the disk
// tier — every point must be a hit with a Result equal to the cold one —
// and deletes the cache.
func (r *runner) warmCheck() error {
	if r.w.mode != cached {
		return nil
	}
	c, err := coyote.OpenResultCache(r.cacheDir, 0)
	if err != nil {
		return err
	}
	for i, pt := range r.pts {
		if r.cold[i] == nil {
			continue // already counted as failed
		}
		r.attempted++
		res, st, err := coyote.RunKernelCached(pt.kernel, pt.params, pt.cfg, c)
		switch {
		case err != nil:
			r.fail(pt, "warm run: %v", err)
		case st != coyote.CacheHit:
			r.fail(pt, "warm lookup was a %v, want a hit", st)
		case !rcache.Equal(res, r.cold[i]):
			r.fail(pt, "warm result differs from the cold one: %s", rcache.Diff(res, r.cold[i]))
		}
	}
	return r.closeCache()
}

// sampledPass runs SampleKernel on every point. The estimated cycle
// count stands in for Result.Cycles: it is exact for a fixed seed.
func (r *runner) sampledPass() error {
	warm := !r.refSet
	r.sampled = make([]*coyote.SampleResult, len(r.pts))
	for i, pt := range r.pts {
		r.attempted++
		var sr *coyote.SampleResult
		var err error
		d := r.timed("SampleKernel", pt.id, func() {
			sr, err = coyote.SampleKernel(pt.kernel, pt.params, pt.cfg, pt.sample)
		})
		if !warm {
			r.wall.add(i, d)
		}
		if err != nil {
			r.fail(pt, "sample: %v", err)
		} else {
			r.check(i, pt, outcome{sr.EstimatedCycles, sr.TotalInstret})
			r.sampled[i] = sr
		}
		runtime.GC()
	}
	return nil
}

// totals sums the reference outcomes over all points.
func (r *runner) totals() outcome {
	var t outcome
	for _, o := range r.ref {
		t.cycles += o.cycles
		t.instr += o.instr
	}
	return t
}
