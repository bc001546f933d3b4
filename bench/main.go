// Command bench is the repository's benchmark: four workloads that drive
// the simulator through its public API, timed with a noise-floor
// estimator that repeats on a shared host, plus a traced mode that
// measures every layer from outside. See README.md.
//
//	go run . -workload fig3-matmul -seed 1 -seconds 20 -trace 0
//	go run . -workload explore-grid -seed 1 -trace 1
//	go run . -agree
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// options selects one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // host time to spend on timed passes
	trace    bool
	tiny     bool   // test-sized problems
	dir      string // scratch directory, created and removed by run
	out      string // directory the traced run writes its spans to
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minPasses is the fewest timed passes a run takes, however short
// -seconds is: the floor needs several looks at every unit.
const minPasses = 3

// Each point's preparation is timed setupReps extra times before the
// passes, because where it is millisecond-scale its floor needs many more
// samples than the passes provide; where it is not (RandCSR at N=32768),
// setupBudget seconds buy enough.
const (
	setupReps    = 30
	minSetupReps = 5
	setupBudget  = 3.0
)

func main() {
	var opt options
	var trace int
	var agree bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 24, "host seconds to spend on timed passes")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.BoolVar(&agree, "agree", false, "run every workload in two alternating sets of five and compare them")
	flag.StringVar(&opt.dir, "dir", ".bench_build/tmp", "scratch directory")
	flag.StringVar(&opt.out, "out", ".bench_build/out", "directory for the traced run's span files")
	flag.Parse()
	opt.trace = trace != 0

	if agree {
		fatalIf(runAgree(os.Stdout, opt))
		return
	}
	rep, info, err := run(opt)
	fatalIf(err)
	enc := json.NewEncoder(os.Stdout)
	fatalIf(enc.Encode(info))
	fatalIf(enc.Encode(rep))
	if !rep.Correct {
		os.Exit(1)
	}
}

// fatalIf reports err and exits non-zero, before any result line.
func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result line and the
// ungated record printed before it.
func run(opt options) (report, map[string]any, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return report{}, nil, err
	}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return report{}, nil, err
	}
	dir, err := os.MkdirTemp(opt.dir, "run-")
	if err != nil {
		return report{}, nil, err
	}
	defer os.RemoveAll(dir)

	host := startHost()
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	r := newRunner(w, opt.seed, opt.tiny, dir, tr)
	var metrics map[string]metric
	info := map[string]any{"workload": w.name, "seed": opt.seed, "trace": opt.trace}
	if opt.trace {
		metrics, err = runTraced(r, opt, info)
	} else {
		metrics, err = runEndToEnd(r, opt, info)
	}
	if err != nil {
		return report{}, nil, err
	}
	host.record(info)
	if len(r.failures) > 0 {
		info["failures"] = r.failures
	}
	return report{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}, info, nil
}

// timedPasses runs the warm-up pass and then timed passes until seconds
// of host time are spent, at least minPasses of them.
func timedPasses(r *runner, seconds float64) error {
	if err := r.pass(); err != nil {
		return err
	}
	t0 := time.Now()
	for n := 1; ; n++ {
		p0 := time.Now()
		if err := r.pass(); err != nil {
			return err
		}
		last := time.Since(p0).Seconds()
		// Stop at the pass boundary closest to the requested duration.
		if n >= minPasses && time.Since(t0).Seconds()+last/2 >= seconds {
			return nil
		}
	}
}

// runEndToEnd is the untraced run: set-up timing, warm-up, timed passes,
// the correctness checks, and the end-to-end metrics.
func runEndToEnd(r *runner, opt options, info map[string]any) (map[string]metric, error) {
	t0 := time.Now()
	for i := 0; i < setupReps; i++ {
		if err := r.measureSetup(); err != nil {
			return nil, err
		}
		if i+1 >= minSetupReps && time.Since(t0).Seconds() > setupBudget {
			break
		}
	}
	if err := timedPasses(r, opt.seconds); err != nil {
		return nil, err
	}
	if err := r.warmCheck(); err != nil {
		return nil, err
	}
	tot := r.totals()
	wall := r.wall.floor()
	// The estimator's alternatives, for the record: they are what the
	// floor is judged against in README.md and are not gated.
	info["passes"] = r.wall.passes()
	info["units"] = len(r.wall)
	info["wall_median_s"] = r.wall.quantileSum(0.5)
	info["wall_p90_s"] = r.wall.quantileSum(0.9)
	info["wall_best_pass_s"] = r.wall.bestPass()
	info["setup_median_s"] = r.setup.quantileSum(0.5)
	info["setup_samples"] = r.setup.passes()
	info["points"] = pointRecord(r)
	if r.w.mode == sampled {
		info["sampled"] = sampleRecord(r)
	}
	return map[string]metric{
		"setup_s":     {r.setup.floor(), "s"},
		"wall_s":      {wall, "s"},
		"mips":        {float64(tot.instr) / wall / 1e6, "instr/us"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"sim_cycles":  {float64(tot.cycles), "count"},
		"sim_instr":   {float64(tot.instr), "count"},
	}, nil
}

// pointRecord lists each point's share of the run: its floor time and
// its simulated counts.
func pointRecord(r *runner) []map[string]any {
	per := len(r.wall) / len(r.pts)
	var out []map[string]any
	for i, pt := range r.pts {
		out = append(out, map[string]any{
			"point":  pt.id,
			"wall_s": r.wall[i*per : (i+1)*per].floor(),
			"cycles": r.ref[i].cycles,
			"instr":  r.ref[i].instr,
		})
	}
	return out
}

// sampleRecord lists each sampled point's CPI and confidence interval.
func sampleRecord(r *runner) []map[string]any {
	var out []map[string]any
	for i, sr := range r.sampled {
		if sr == nil {
			continue
		}
		out = append(out, map[string]any{
			"point":        r.pts[i].id,
			"mean_cpi":     sr.MeanCPI,
			"ci_half":      sr.CPIError,
			"intervals":    len(sr.Intervals),
			"detailed_pct": 100 * float64(sr.DetailedInstret) / float64(sr.TotalInstret),
		})
	}
	return out
}
