package main

import (
	"math"
	"math/rand"
	"regexp"
	"testing"
)

// TestFloorAbsorbsBursts feeds the estimator what a shared host produces
// — every pass hit by a multi-unit slowdown somewhere, plus small jitter
// everywhere — and checks that the floor recovers the undisturbed time
// where the median and the best whole pass do not.
func TestFloorAbsorbsBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const units, passes = 160, 7
	var truth float64
	base := make([]float64, units)
	for u := range base {
		base[u] = 0.01 + 0.05*rng.Float64()
		truth += base[u]
	}
	var s samples
	for p := 0; p < passes; p++ {
		// Two bursts per pass, each slowing a fifth of the units by 50 %:
		// no pass is clean, so even the best pass carries a burst.
		burstAt := []int{rng.Intn(units), rng.Intn(units)}
		for u := 0; u < units; u++ {
			d := base[u] * (1 + 0.01*rng.Float64())
			for _, b := range burstAt {
				if off := (u - b + units) % units; off < units/5 {
					d = base[u] * 1.5
				}
			}
			s.add(u, d)
		}
	}
	rel := func(got float64) float64 { return math.Abs(got-truth) / truth }
	if e := rel(s.floor()); e > 0.01 {
		t.Errorf("floor is %.2f%% from the undisturbed time, want within 1%%", 100*e)
	}
	if e := rel(s.bestPass()); e < 0.05 {
		t.Errorf("best pass is only %.2f%% off: the synthetic noise is too gentle to show the difference", 100*e)
	}
	if s.quantileSum(0.5) < s.floor() || s.quantileSum(0.9) < s.quantileSum(0.5) {
		t.Errorf("floor %.4f, median %.4f, p90 %.4f are out of order", s.floor(), s.quantileSum(0.5), s.quantileSum(0.9))
	}
	if s.passes() != passes {
		t.Errorf("passes() = %d, want %d", s.passes(), passes)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; Python gives 1.5, 12", q1, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		modulePrefix + "internal/cpu.(*Hart).StepBlock":                  "cpu",
		modulePrefix + "internal/evsim.(*Port[go.shape.struct {}]).Send": "evsim",
		modulePrefix + "internal/uncore.(*L2Bank).handle":                "uncore",
		modulePrefix + "internal/kernels.RandCSR":                        "other",
		modulePrefix + "bench.(*runner).pass":                            "other",
		"runtime.mallocgc":                                               "runtime",
		"internal/runtime/maps.(*Map).getWithoutKey":                     "runtime",
		"sort.Ints": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// tinyRun executes one workload at test scale with the fewest passes.
func tinyRun(t *testing.T, workload string, seed int64, trace bool) report {
	t.Helper()
	rep, info, err := run(options{
		workload: workload, seed: seed, trace: trace, tiny: true,
		dir: t.TempDir(), out: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", workload, rep.Correct, rep.Attempted, rep.Failed, info["failures"])
	}
	return rep
}

// TestDeclaredMetrics runs every workload, untraced and traced, and holds
// what it prints against BENCHMARK.json: the same workloads, and exactly
// the declared metric names with the declared units.
func TestDeclaredMetrics(t *testing.T) {
	decl, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the binary", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the allowed alphabet", w.Name)
		}
	}
	for _, w := range workloads {
		for _, c := range []struct {
			trace bool
			want  []metricDecl
		}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
			rep := tinyRun(t, w.name, 1, c.trace)
			if len(rep.Metrics) != len(c.want) {
				t.Errorf("%s trace=%v prints %d metrics, BENCHMARK.json declares %d", w.name, c.trace, len(rep.Metrics), len(c.want))
			}
			for _, d := range c.want {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
				case !ok:
					t.Errorf("%s trace=%v does not print %s", w.name, c.trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.Name, m.Value)
				case !c.trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestSeedDecidesInputs: the same seed reproduces the simulated counts
// exactly, another seed gives another sparse matrix and so other cycles.
func TestSeedDecidesInputs(t *testing.T) {
	a := tinyRun(t, "fig3-spmv", 7, false).Metrics
	b := tinyRun(t, "fig3-spmv", 7, false).Metrics
	c := tinyRun(t, "fig3-spmv", 8, false).Metrics
	for _, m := range []string{"sim_cycles", "sim_instr"} {
		if a[m].Value != b[m].Value {
			t.Errorf("seed 7 twice: %s %v then %v", m, a[m].Value, b[m].Value)
		}
	}
	if a["sim_cycles"].Value == c["sim_cycles"].Value {
		t.Errorf("seeds 7 and 8 both simulate %v cycles", a["sim_cycles"].Value)
	}
}
