package main

import (
	"fmt"

	coyote "github.com/coyote-sim/coyote"
	"github.com/coyote-sim/coyote/internal/uncore"
)

// mode selects how a workload's points enter the simulator.
type mode int

const (
	// detailed points are prepared by the benchmark, simulated in slices
	// with System.RunTo and verified with VerifyKernel — cmd/fig3's flow.
	detailed mode = iota
	// cached points are one RunKernelCached call each against a fresh
	// on-disk result cache — cmd/explore's flow.
	cached
	// sampled points are one SampleKernel call each.
	sampled
)

// point is one simulation job of a workload.
type point struct {
	id     string
	kernel string
	params coyote.Params
	cfg    coyote.Config
	sample coyote.SampleConfig // sampled mode only
	// window, when non-zero, bounds the timed part of a detailed point to
	// its first window simulated cycles: the warm-up pass still runs the
	// point to completion and verifies it, the timed passes stop at the
	// window's end and must arrive there with the warm-up's instruction
	// count. It keeps a pass short enough for many passes to fit in a run
	// (see README.md, "Why the floor").
	window uint64
}

// workload is a fixed, seed-generated list of points run the same way.
type workload struct {
	name   string
	why    string
	mode   mode
	points func(seed int64, tiny bool) []point
}

// sliceCount is how many RunTo units a detailed point is cut into.
const sliceCount = 40

// workloads lists every workload in BENCHMARK.json order. The tiny
// variants keep the same kernels, modes and config axes at problem sizes
// the package tests can run in well under a second.
var workloads = []workload{
	{
		name: "fig3-matmul",
		why:  "Figure 3 dense kernel, 1-128 cores: instruction-rate bound, so ISS, L1 and L2-hit-path work all show",
		mode: detailed,
		points: func(seed int64, tiny bool) []point {
			// cores, N, window: the kernel needs a row per core, and 128³
			// is 17 M instructions, so the 128-core point is timed over
			// its first quarter.
			shape := [][3]int{{1, 64, 0}, {8, 64, 0}, {32, 64, 0}, {128, 128, 500_000}}
			if tiny {
				shape = [][3]int{{1, 12, 0}, {8, 12, 2000}}
			}
			var pts []point
			for _, s := range shape {
				pts = append(pts, point{
					id:     fmt.Sprintf("matmul-scalar/c%d/n%d", s[0], s[1]),
					kernel: "matmul-scalar",
					params: coyote.Params{N: s[1], Cores: s[0], Seed: seed},
					cfg:    coyote.DefaultConfig(s[0]),
					window: uint64(s[2]),
				})
			}
			return pts
		},
	},
	{
		name: "fig3-spmv",
		why:  "Figure 3 sparse kernel, 1-128 cores: harts mostly parked on misses, five times matmul's allocations per instruction",
		mode: detailed,
		points: func(seed int64, tiny bool) []point {
			shape := [][2]int{{1, 4096}, {8, 8192}, {32, 8192}, {128, 8192}}
			if tiny {
				shape = [][2]int{{1, 256}, {8, 512}}
			}
			var pts []point
			for _, s := range shape {
				pts = append(pts, point{
					id:     fmt.Sprintf("spmv-scalar/c%d/n%d", s[0], s[1]),
					kernel: "spmv-scalar",
					params: coyote.Params{N: s[1], Cores: s[0], Density: 24 / float64(s[1]), Seed: seed},
					cfg:    coyote.DefaultConfig(s[0]),
				})
			}
			return pts
		},
	},
	{
		name:   "explore-grid",
		why:    "cmd/explore grid, cold cache: vector gathers, AMOs and write streams that overflow the L2, which no read-only workload sees",
		mode:   cached,
		points: explorePoints,
	},
	{
		name: "sampled-ff",
		why:  "SampleKernel on 4 cores: 88% of instructions are functional fast-forward, so only functional-engine gains show",
		mode: sampled,
		points: func(seed int64, tiny bool) []point {
			sc := coyote.SampleConfig{Period: 100000, Warmup: 2000, Measure: 10000}
			matN, spmvN := 128, 16384
			if tiny {
				sc = coyote.SampleConfig{Period: 4000, Warmup: 200, Measure: 1000}
				matN, spmvN = 24, 512
			}
			var pts []point
			for _, k := range []struct {
				kernel string
				n      int
				dens   float64
			}{{"matmul-scalar", matN, 0}, {"spmv-scalar", spmvN, 24 / float64(spmvN)}} {
				for d := int64(0); d < 2; d++ {
					sc.Seed = seed + d
					pts = append(pts, point{
						id:     fmt.Sprintf("%s/c4/n%d/s+%d", k.kernel, k.n, d),
						kernel: k.kernel,
						params: coyote.Params{N: k.n, Cores: 4, Density: k.dens, Seed: seed + d},
						cfg:    coyote.DefaultConfig(4),
						sample: sc,
					})
				}
			}
			return pts
		},
	},
}

// explorePoints is cmd/explore's cross product over the l2, mapping and
// mcpu axes for four kernels on 16 cores.
func explorePoints(seed int64, tiny bool) []point {
	type axis []struct {
		name string
		mut  func(*coyote.Config)
	}
	l2 := axis{
		{"l2=shared", func(c *coyote.Config) { c.Uncore.L2Shared = true }},
		{"l2=private", func(c *coyote.Config) { c.Uncore.L2Shared = false }},
	}
	mapping := axis{
		{"map=set-il", func(c *coyote.Config) { c.Uncore.Mapping = uncore.SetInterleave }},
		{"map=page", func(c *coyote.Config) { c.Uncore.Mapping = uncore.PageToBank }},
	}
	mcpu := axis{
		{"mcpu=off", func(c *coyote.Config) { c.Hart.MCPUOffload = false }},
		{"mcpu=on", func(c *coyote.Config) { c.Hart.MCPUOffload = true }},
	}
	grid := []struct {
		kernel  string
		n, tiny int
		density float64
		axes    []axis
	}{
		{"spmv-vector-gather", 2048, 256, 0.008, []axis{l2, mapping, mcpu}},
		{"stencil-vector", 384, 32, 0, []axis{l2, mapping}},
		{"histogram-atomic", 131072, 2048, 0, []axis{l2, mapping}},
		// N=49152 doubles overflow the 1 MiB of L2, so dirty L2 evictions
		// reach the memory controllers.
		{"copy-vector", 49152, 1024, 0, []axis{l2}},
	}
	const cores = 16
	var pts []point
	for _, g := range grid {
		n, density := g.n, g.density
		if tiny {
			n = g.tiny
			if density > 0 {
				density = 0.05
			}
		}
		variants := []point{{id: g.kernel, cfg: coyote.DefaultConfig(cores)}}
		for _, ax := range g.axes {
			var next []point
			for _, v := range variants {
				for _, a := range ax {
					p := v
					p.id += " " + a.name
					a.mut(&p.cfg)
					next = append(next, p)
				}
			}
			variants = next
		}
		for _, v := range variants {
			v.kernel = g.kernel
			v.params = coyote.Params{N: n, Cores: cores, Density: density, Seed: seed}
			pts = append(pts, v)
		}
	}
	return pts
}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
