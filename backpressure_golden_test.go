package coyote

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/san"
	"github.com/coyote-sim/coyote/internal/uncore"
)

// backpressurePoints is the matrix pinned in testdata/backpressure.golden:
// six kernels whose L2 traffic differs in kind (write streams, gathers,
// stencils, dense reuse, AMOs, scalar sparse) × {4,16} cores × uncore
// configurations that starve the per-bank MSHR table in different ways.
// Every point but "default" shrinks the table so requests are refused and
// wait — the path whose simulated results must not move when the waiting
// mechanism changes (DESIGN.md §6, "MSHR back-pressure").
func backpressurePoints() []Point {
	kernels := []struct {
		name string
		p    Params
	}{
		{"copy-vector", Params{N: 24576}},
		{"spmv-vector-gather", Params{N: 1024, Density: 0.01}},
		{"stencil-vector", Params{N: 192}},
		{"matmul-scalar", Params{N: 32}},
		{"histogram-atomic", Params{N: 16384}},
		{"spmv-scalar", Params{N: 2048, Density: 0.01}},
	}
	mshr4 := func(mut func(*Config)) func(*Config) {
		return func(c *Config) {
			c.Uncore.L2MSHRs = 4
			if mut != nil {
				mut(c)
			}
		}
	}
	configs := []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"mshr4", mshr4(nil)},
		{"page-to-bank", mshr4(func(c *Config) { c.Uncore.Mapping = uncore.PageToBank })},
		{"private-l2", mshr4(func(c *Config) { c.Uncore.L2Shared = false })},
		{"local1", mshr4(func(c *Config) { c.Uncore.LocalLatency = 1 })},
		{"hops0", mshr4(func(c *Config) { c.Uncore.LocalLatency, c.Uncore.NoCLatency = 0, 0 })},
		{"mem1-miss0", mshr4(func(c *Config) { c.Uncore.MemLatency, c.Uncore.L2MissLatency = 1, 0 })},
		{"llc", mshr4(func(c *Config) { c.Uncore.LLCEnable = true })},
		{"llc-hit1", mshr4(func(c *Config) { c.Uncore.LLCEnable, c.Uncore.LLCHitLatency = true, 1 })},
		{"rowbits11", mshr4(func(c *Config) { c.Uncore.MemRowBits = 11 })},
		{"mcpu", mshr4(func(c *Config) { c.Hart.MCPUOffload = true })},
		{"interleave8", mshr4(func(c *Config) { c.InterleaveQuantum = 8 })},
		{"mshr8-prefetch2", func(c *Config) { c.Uncore.L2MSHRs, c.Uncore.PrefetchDepth = 8, 2 }},
	}
	var pts []Point
	for _, k := range kernels {
		for _, cores := range []int{4, 16} {
			for _, cv := range configs {
				p := k.p
				p.Cores, p.Seed = cores, 1
				cfg := DefaultConfig(cores)
				cv.mut(&cfg)
				pts = append(pts, Point{
					Name:   fmt.Sprintf("%s/c%d/%s", k.name, cores, cv.name),
					Kernel: k.name, Params: p, Config: cfg,
				})
			}
		}
	}
	return pts
}

const backpressureGoldenPath = "testdata/backpressure.golden"

// TestBackpressureGolden pins the full canonical Result of every point of
// the back-pressure matrix as a SHA-256. The golden file was generated at
// the commit BEFORE the waiting list replaced per-cycle retry events, so
// a pass means the waiting list reproduces polling exactly: cycles, every
// hart statistic and every uncore counter. Regenerate (only for a change
// that is meant to move simulated results) with:
//
//	COYOTE_UPDATE_GOLDEN=1 go test -run TestBackpressureGolden .
func TestBackpressureGolden(t *testing.T) {
	pts := backpressurePoints()
	if san.Enabled || testing.Short() {
		// The sanitizer examines every waiting request every cycle by
		// design, which makes the 16-core half of the matrix take minutes.
		kept := pts[:0:0]
		for _, pt := range pts {
			if pt.Params.Cores == 4 {
				kept = append(kept, pt)
			}
		}
		pts = kept
	}
	got := make(map[string]string, len(pts))
	var lines []string
	for i, r := range Sweep(pts, runtime.GOMAXPROCS(0)) {
		if r.Err != nil {
			t.Fatalf("%s: %v", pts[i].Name, r.Err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(canonical(r.Result))))
		got[pts[i].Name] = sum
		lines = append(lines, fmt.Sprintf("%-48s %s", pts[i].Name, sum))
	}

	if os.Getenv("COYOTE_UPDATE_GOLDEN") != "" {
		if len(pts) != len(backpressurePoints()) {
			t.Fatal("refusing to write a partial golden file (coyotesan or -short)")
		}
		if err := os.WriteFile(backpressureGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", backpressureGoldenPath)
		return
	}

	raw, err := os.ReadFile(backpressureGoldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with COYOTE_UPDATE_GOLDEN=1 go test -run TestBackpressureGolden .", err)
	}
	want := make(map[string]string)
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(ln)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", backpressureGoldenPath, ln)
		}
		want[f[0]] = f[1]
	}
	if len(want) != len(backpressurePoints()) {
		t.Errorf("%s pins %d points, the matrix has %d", backpressureGoldenPath, len(want), len(backpressurePoints()))
	}
	for _, pt := range pts {
		if got[pt.Name] != want[pt.Name] {
			t.Errorf("%s: canonical(Result) hash %s, golden %s", pt.Name, got[pt.Name], want[pt.Name])
		}
	}
}

// TestBackpressureGoldenLiterals asserts four storm points number by number, so
// a reader can see what the golden hashes protect: the counters count
// examinations (one per waiting request per cycle), not requests.
func TestBackpressureGoldenLiterals(t *testing.T) {
	sum := func(res *Result, prefix, suffix string) uint64 {
		var n uint64
		for k, v := range res.UncoreRaw {
			if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
				n += v
			}
		}
		return n
	}
	type want struct {
		cycles, instrs, conflicts                    uint64
		reads, writes, misses, dramWrites, dramReads uint64 // checked when reads != 0
	}
	cases := []struct {
		name   string
		kernel string
		p      Params
		mut    func(*Config)
		slow   bool
		want   want
	}{
		{"copy-vector-16", "copy-vector", Params{N: 49152, Cores: 16, Seed: 1}, nil, false,
			want{cycles: 37639, instrs: 30992, conflicts: 1216456,
				reads: 988434, writes: 244454, misses: 1231263, dramWrites: 2649, dramReads: 14807}},
		{"spmv-gather-16-page", "spmv-vector-gather", Params{N: 2048, Cores: 16, Density: 0.008, Seed: 1},
			func(c *Config) { c.Uncore.Mapping = uncore.PageToBank }, false,
			want{cycles: 46159, conflicts: 564417}},
		{"matmul-scalar-32", "matmul-scalar", Params{N: 64, Cores: 32, Seed: 1}, nil, false,
			want{cycles: 275845, conflicts: 34851}},
		{"matmul-scalar-128", "matmul-scalar", Params{N: 128, Cores: 128, Seed: 1}, nil, true,
			want{cycles: 2169357, instrs: 17041792, conflicts: 8892525}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && (san.Enabled || testing.Short()) {
				t.Skip("17M instructions on 128 cores")
			}
			cfg := DefaultConfig(c.p.Cores)
			if c.mut != nil {
				c.mut(&cfg)
			}
			res, err := RunKernel(c.kernel, c.p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eq := func(what string, got, want uint64) {
				if got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}
			eq("cycles", res.Cycles, c.want.cycles)
			if c.want.instrs != 0 {
				eq("instructions", res.Instructions, c.want.instrs)
			}
			eq("Σ mshr_conflicts", sum(res, "l2bank", ".mshr_conflicts"), c.want.conflicts)
			if c.want.reads != 0 {
				eq("Σ bank reads", sum(res, "l2bank", ".reads"), c.want.reads)
				eq("Σ bank writes", sum(res, "l2bank", ".writes"), c.want.writes)
				eq("Σ bank misses", sum(res, "l2bank", ".misses"), c.want.misses)
				eq("DRAM writes", res.MemWrites(), c.want.dramWrites)
				eq("DRAM reads", res.MemReads(), c.want.dramReads)
			}
		})
	}
}

// starvedPoints are two valid configurations whose one- or two-entry MSHR
// tables keep requests waiting for hundreds of millions of request-cycles
// (515 M and 149 M). Per-cycle retry events grew a queue by 56 bytes per
// request-cycle, so the kernel's OOM killer ended both runs on a 16 GB
// host and no golden exists for them; the waiting list needs a few
// hundred bytes.
func starvedPoints() []Point {
	mk := func(kernel string, n, mshrs int) Point {
		cfg := DefaultConfig(4)
		cfg.Uncore.L2MSHRs = mshrs
		return Point{
			Name: fmt.Sprintf("%s/mshr%d", kernel, mshrs), Kernel: kernel,
			Params: Params{N: n, Cores: 4, Seed: 1}, Config: cfg,
		}
	}
	return []Point{mk("copy-vector", 24576, 1), mk("stencil-vector", 192, 2)}
}

// TestStarvedBankBoundedMemory runs the starved points twice each in a
// child process (so the heap measured is theirs alone): they complete,
// verify, repeat exactly, and the heap the runtime obtained from the OS
// stays under 128 MB.
func TestStarvedBankBoundedMemory(t *testing.T) {
	if san.Enabled || testing.Short() {
		t.Skip("664 M waited request-cycles: the sanitizer examines each one")
	}
	const childEnv = "COYOTE_STARVED_CHILD"
	if os.Getenv(childEnv) != "" {
		for _, pt := range starvedPoints() {
			var first string
			for run := 0; run < 2; run++ {
				res, err := RunKernel(pt.Kernel, pt.Params, pt.Config) // verifies the output
				if err != nil {
					t.Fatalf("%s: %v", pt.Name, err)
				}
				if c := canonical(res); run == 0 {
					first = c
				} else if c != first {
					t.Fatalf("%s: two runs differ", pt.Name)
				}
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("starved-child heap_sys=%d\n", ms.HeapSys)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStarvedBankBoundedMemory$", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var heapSys uint64
	for _, ln := range strings.Split(string(out), "\n") {
		if _, err := fmt.Sscanf(ln, "starved-child heap_sys=%d", &heapSys); err == nil {
			break
		}
	}
	if heapSys == 0 {
		t.Fatalf("child printed no heap size:\n%s", out)
	}
	t.Logf("HeapSys after four starved runs: %.1f MB", float64(heapSys)/(1<<20))
	if heapSys >= 128<<20 {
		t.Errorf("HeapSys = %d bytes, want under 128 MB", heapSys)
	}
}
