package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	coyote "github.com/coyote-sim/coyote"
	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/checkpoint"
	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/evsim"
	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/rcache"
	"github.com/coyote-sim/coyote/internal/trace"
	"github.com/coyote-sim/coyote/internal/uncore"
)

// Unit costs: each layer's exported entry points driven directly, outside
// any simulation, and timed with the same floor estimator as the
// workloads. They do not depend on the workload or the seed; a traced run
// prints them beside the workload's exact counts so that cost × count can
// be held against the measured span time.

// op performs about n operations of one kind and returns the host time
// they took and how many it performed (a multiple of n for ops that work
// in batches, fewer than n when a fixture caps it).
type op func(n int) (time.Duration, float64)

// bencher sizes the unit-cost measurements: the floor over samples
// samples of at least minSample each.
type bencher struct {
	minSample time.Duration
	samples   int
}

var (
	fullBencher = bencher{minSample: 10 * time.Millisecond, samples: 30}
	tinyBencher = bencher{minSample: 200 * time.Microsecond, samples: 3}
)

// unitCost is one registered measurement.
type unitCost struct {
	name, unit string
	run        op
	value      func(ns float64) float64 // floor ns per operation → the metric; nil = as is
	n          int                      // operations per sample, calibrated
	ns         float64                  // floor so far
}

// costs collects the unit-cost measurements, then takes their samples
// round-robin: every measurement's looks are spread over the whole
// sampling period, as the workloads' units' are over the passes, so a
// slow second on the host costs each measurement one look, not all.
type costs struct {
	b     bencher
	tiny  bool    // test-sized fixtures
	dir   string  // scratch space for the on-disk fixtures
	tr    *tracer // receives the spans around the checkpoint calls
	list  []*unitCost
	fixed map[string]metric // sizes, which need no timing
	err   error             // first failure inside any op
}

// add registers a measurement.
func (c *costs) add(name, unit string, value func(float64) float64, run op) {
	c.list = append(c.list, &unitCost{name: name, unit: unit, run: run, value: value, ns: math.Inf(1)})
}

// fail keeps the first error an op met; ops run on regardless.
func (c *costs) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// measure calibrates every measurement's sample size, samples them all
// round-robin, and returns the metrics.
func (c *costs) measure() (map[string]metric, error) {
	for _, u := range c.list {
		u.n = 1
		for {
			d, done := u.run(u.n)
			if d >= c.b.minSample || done < float64(u.n) || u.n >= 1<<30 {
				break
			}
			// Aim a little past the minimum so most samples clear it.
			grow := 1.3 * float64(c.b.minSample) / math.Max(float64(d), float64(c.b.minSample)/10)
			u.n = int(float64(u.n)*grow) + 1
		}
	}
	for s := 0; s < c.b.samples; s++ {
		for _, u := range c.list {
			d, done := u.run(u.n)
			u.ns = math.Min(u.ns, float64(d.Nanoseconds())/done)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	m := c.fixed
	for _, u := range c.list {
		v := u.ns
		if u.value != nil {
			v = u.value(v)
		}
		m[u.name] = metric{v, u.unit}
	}
	return m, nil
}

// stopwatch times fn.
func stopwatch(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// each adapts a single-operation function to op.
func each(fn func()) op {
	return func(n int) (time.Duration, float64) {
		return stopwatch(func() {
			for i := 0; i < n; i++ {
				fn()
			}
		}), float64(n)
	}
}

// scale converts nanoseconds to a larger unit.
func scale(div float64) func(float64) float64 {
	return func(ns float64) float64 { return ns / div }
}

// layerCosts registers every layer's fixtures with c and measures them.
func layerCosts(c *costs) (map[string]metric, error) {
	c.fixed = map[string]metric{}
	fixtures, err := os.MkdirTemp(c.dir, "costs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fixtures)
	c.dir = fixtures
	for _, part := range []func(*costs) error{
		setupCosts, cpuCosts, memoryCosts, coreCosts, evsimCosts, uncoreCosts,
		rcacheCosts, checkpointCosts, traceCosts,
	} {
		if err := part(c); err != nil {
			return nil, err
		}
	}
	return c.measure()
}

// setupCosts covers what happens before the first simulated cycle:
// assembling, generating inputs, building a 128-core system — and
// checking outputs afterwards.
func setupCosts(c *costs) error {
	k, err := kernels.Get("spmv-scalar")
	if err != nil {
		return err
	}
	p := coyote.Params{N: 4096, Cores: 8, Density: 24.0 / 4096, Seed: 1}
	bigCores := 128
	if c.tiny {
		p = coyote.Params{N: 128, Cores: 8, Density: 24.0 / 128, Seed: 1}
		bigCores = 16
	}
	sys, err := coyote.PrepareKernel(k.Name, p, coyote.DefaultConfig(p.Cores))
	if err != nil {
		return err
	}
	args := sys.MustSymbol("args")
	if _, err := sys.Run(); err != nil {
		return err
	}
	c.add("asm.assemble_us", "us", scale(1e3), each(func() {
		_, err := asm.Assemble(k.Source)
		c.fail(err)
	}))
	c.add("kernels.setup_ms", "ms", scale(1e6), each(func() { k.Setup(mem.New(), args, p) }))
	c.add("kernels.verify_ms", "ms", scale(1e6), each(func() { c.fail(k.Verify(sys.Mem, args, p)) }))
	c.add("core.new_ms_128", "ms", scale(1e6), each(func() {
		_, err := core.New(core.DefaultConfig(bigCores))
		c.fail(err)
	}))
	return nil
}

// Loops for the instruction-set simulator. Each runs forever inside a few
// cache lines of text; the load/store and vector loops walk a 2 KiB
// buffer, so after the first lap every access hits the L1.
const (
	aluLoop = `
_start:
loop:
	addi t1, t1, 1
	addi t2, t2, 2
	add  t3, t1, t2
	xor  t4, t3, t1
	slli t5, t4, 3
	sub  t6, t5, t2
	addi t0, t0, -1
	j    loop
`
	ldstLoop = `
_start:
	li   s2, 0x10000000
	mv   s0, s2
loop:
	ld   t1, 0(s0)
	sd   t1, 8(s0)
	ld   t2, 16(s0)
	sd   t2, 24(s0)
	addi s1, s1, 32
	andi s1, s1, 0x7e0
	add  s0, s2, s1
	j    loop
`
	vectorLoop = `
_start:
	li   s2, 0x10000000
	li   t4, 16
	vsetvli t5, t4, e64, m1, ta, ma
loop:
	vle64.v v1, (s2)
	vle64.v v2, (s2)
	vfmacc.vf v2, fa0, v1
	vse64.v v2, (s2)
	j    loop
`
)

// hartDriver steps one hart over zero-latency memory: every miss
// completes before the next step, so only the hart and its L1s are timed.
type hartDriver struct {
	h   *cpu.Hart
	now uint64
}

func newHartDriver(src string, functional bool) (*hartDriver, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	m := mem.New()
	prog.LoadInto(m)
	h, err := cpu.NewHart(0, cpu.DefaultConfig(), m, nil)
	if err != nil {
		return nil, err
	}
	h.PC = prog.Entry
	if functional {
		h.SetWarmSink(func(uint64, bool) {})
	}
	return &hartDriver{h: h}, nil
}

// hartEngine selects the entry point the driver steps through.
type hartEngine int

const (
	refEngine   hartEngine = iota // Hart.Step
	blockEngine                   // Hart.StepBlock, one instruction per call as at InterleaveQuantum 1
	funcEngine                    // Hart.StepBlockFunctional, RunFunctional's quantum
)

// run retires at least n more instructions.
func (d *hartDriver) run(e hartEngine, n int) error {
	h := d.h
	target := h.Stats.Instret + uint64(n)
	for h.Stats.Instret < target {
		var res cpu.StepResult
		switch e {
		case refEngine:
			res = h.Step(d.now)
		case blockEngine:
			_, res = h.StepBlock(d.now, 1)
		case funcEngine:
			_, res = h.StepBlockFunctional(d.now, 4096)
		}
		d.now++
		for _, ev := range h.DrainEvents() {
			switch {
			case ev.Gather != nil:
				h.RecycleGatherBuf(ev.Gather)
			case ev.Fetch:
				h.CompleteFetch()
			case ev.HasDest:
				h.CompleteFill(ev.Dest, ev.DestReg)
			}
		}
		switch res {
		case cpu.StepBusy:
			if bu := h.BusyUntil(); bu > d.now {
				d.now = bu
			}
		case cpu.StepFault:
			return h.Fault
		case cpu.StepHalted:
			return fmt.Errorf("unit-cost loop halted")
		}
	}
	return nil
}

func cpuCosts(c *costs) error {
	for _, l := range []struct {
		name, src string
		engine    hartEngine
	}{
		{"cpu.ref_ns_per_instr", aluLoop, refEngine},
		{"cpu.block_ns_per_instr", aluLoop, blockEngine},
		{"cpu.block_ldst_ns_per_instr", ldstLoop, blockEngine},
		{"cpu.func_ns_per_instr", aluLoop, funcEngine},
	} {
		d, err := newHartDriver(l.src, l.engine == funcEngine)
		if err != nil {
			return err
		}
		c.add(l.name, "ns", nil, func(n int) (time.Duration, float64) {
			before := d.h.Stats.Instret
			t := stopwatch(func() { c.fail(d.run(l.engine, n)) })
			return t, float64(d.h.Stats.Instret - before)
		})
	}
	d, err := newHartDriver(vectorLoop, false)
	if err != nil {
		return err
	}
	c.add("cpu.vector_ns_per_elem", "ns", nil, func(n int) (time.Duration, float64) {
		before := d.h.Stats.ElemAccesses
		// Five instructions move 48 elements.
		t := stopwatch(func() { c.fail(d.run(blockEngine, n/10+5)) })
		return t, float64(d.h.Stats.ElemAccesses - before)
	})
	return nil
}

// memoryCosts covers the L1 tag array and the functional memory.
func memoryCosts(c *costs) error {
	cfg := cpu.DefaultConfig().L1D
	// Half the cache's lines, two per set: hits alternate between the
	// most-recently-used fast path and the full way scan.
	resident := uint64(cfg.SizeBytes / cfg.LineBytes / 2)
	line := uint64(cfg.LineBytes)
	for _, a := range []struct {
		name string
		warm bool
	}{{"cache.hit_ns", false}, {"cache.warm_ns", true}} {
		l1, err := cache.New(cfg)
		if err != nil {
			return err
		}
		var i uint64
		c.add(a.name, "ns", nil, each(func() {
			if a.warm {
				l1.WarmAccess((i%resident)*line, false)
			} else {
				l1.Access((i%resident)*line, false)
			}
			i++
		}))
	}
	// A stream of never-seen lines: every access misses and evicts.
	l1, err := cache.New(cfg)
	if err != nil {
		return err
	}
	next := uint64(1 << 30)
	c.add("cache.miss_ns", "ns", nil, each(func() {
		l1.Access(next, false)
		next += line
	}))

	fm := mem.New()
	const span = 1 << 20
	for a := uint64(0); a < span; a += 8 {
		fm.Write64(0x10000000+a, a)
	}
	var i uint64
	c.add("mem.rw64_ns", "ns", nil, each(func() {
		a := 0x10000000 + (i*8)%span
		fm.Write64(a, fm.Read64(a)+1)
		i++
	}))
	return nil
}

// stalledLoop parks every hart on a dependent L1 miss each iteration
// (bench_test.go's BenchmarkRunLoop128Stalled): almost every simulated
// cycle has work for only a handful of harts.
const stalledLoop = `
_start:
	csrr t0, mhartid
	li   s0, 0x10000000
	slli t1, t0, 16
	add  s0, s0, t1
	li   t3, 192
loop:
	ld   t4, 0(s0)
	add  t5, t4, t0
	addi s0, s0, 256
	addi t3, t3, -1
	bnez t3, loop
	li   a7, 93
	csrr a0, mhartid
	ecall
`

func coreCosts(c *costs) error {
	prog, err := asm.Assemble(stalledLoop)
	if err != nil {
		return err
	}
	cores := 128
	if c.tiny {
		cores = 16
	}
	// One operation is one simulated cycle; a sample is as many whole
	// runs, each on a fresh system built outside the timed region, as it
	// takes to cover about n cycles.
	c.add("core.stalled_cycle_ns", "ns", nil, func(n int) (time.Duration, float64) {
		var total time.Duration
		var cycles float64
		for cycles < float64(n) {
			sys, err := core.New(core.DefaultConfig(cores))
			if err != nil {
				c.fail(err)
				return time.Nanosecond, 1
			}
			sys.LoadProgram(prog)
			var res *core.Result
			total += stopwatch(func() { res, err = sys.Run() })
			if err != nil {
				c.fail(err)
				return time.Nanosecond, 1
			}
			cycles += float64(res.Cycles)
		}
		return total, cycles
	})
	return nil
}

// evsimCosts times schedule+pop of one event, near (inside the calendar
// ring's window) and far (through the overflow heap).
func evsimCosts(c *costs) error {
	noop := func(uint64) {}
	for _, e := range []struct {
		name  string
		delay uint64
	}{{"evsim.near_ns", 1}, {"evsim.far_ns", 4096}} {
		eng := evsim.NewEngine()
		c.add(e.name, "ns", nil, func(n int) (time.Duration, float64) {
			return stopwatch(func() {
				for i := 0; i < n; i++ {
					eng.ScheduleArg(e.delay+uint64(i&255), noop, 0)
					if i&255 == 255 {
						eng.AdvanceTo(eng.Now() + 256)
					}
				}
				eng.Drain()
			}), float64(n)
		})
	}
	return nil
}

// uncoreCosts times one request from Submit to Done, in host time, for
// each path through the L2 banks.
func uncoreCosts(c *costs) error {
	ccfg := core.DefaultConfig(16)
	if err := ccfg.Validate(); err != nil {
		return err
	}
	ucfg := ccfg.Uncore
	const line = 64
	// Requests go in batches small enough for the banks' MSHRs and are
	// drained to completion, like a burst of misses from one cycle.
	const batch = 16
	done := uncore.Done{F: func(uint64) {}}
	submits := func(name string, write bool, addr func(i uint64) uint64, prewarm uint64) error {
		eng := evsim.NewEngine()
		u, err := uncore.New(ucfg, eng)
		if err != nil {
			return err
		}
		var i uint64
		burst := func(n int) {
			for k := 0; k < n; k++ {
				req := uncore.Request{Tile: int(i & 1), Addr: addr(i), Write: write}
				if !write {
					req.Done = done
				}
				u.Submit(req)
				i++
				if i%batch == 0 {
					eng.Drain()
				}
			}
			eng.Drain()
		}
		burst(int(prewarm))
		c.add(name, "ns", nil, func(n int) (time.Duration, float64) {
			return stopwatch(func() { burst(n) }), float64(n)
		})
		return nil
	}
	const residentLines = 1024 // 64 KiB: well inside 1 MiB of L2
	l2Lines := uint64(ucfg.L2.SizeBytes/line) * uint64(ucfg.Tiles*ucfg.BanksPerTile)
	stream := func(i uint64) uint64 { return 1<<32 + i*line }
	if err := submits("uncore.l2hit_ns", false, func(i uint64) uint64 { return (i % residentLines) * line }, residentLines); err != nil {
		return err
	}
	if err := submits("uncore.l2miss_ns", false, stream, 0); err != nil {
		return err
	}
	// A stream of written lines: once the L2 is full of them, every write
	// evicts a dirty line to a memory controller.
	if err := submits("uncore.writeback_ns", true, stream, 2*l2Lines); err != nil {
		return err
	}

	eng := evsim.NewEngine()
	u, err := uncore.New(ucfg, eng)
	if err != nil {
		return err
	}
	var g uint64
	lines := make([]uint64, batch)
	c.add("uncore.gather_line_ns", "ns", nil, func(n int) (time.Duration, float64) {
		descs := n/batch + 1
		return stopwatch(func() {
			for d := 0; d < descs; d++ {
				for k := range lines {
					lines[k] = 1<<32 + g*line*17
					g++
				}
				u.SubmitGather(int(g&1), lines, false, done)
				eng.Drain()
			}
		}), float64(descs * batch)
	})

	w, err := uncore.New(ucfg, evsim.NewEngine())
	if err != nil {
		return err
	}
	var i uint64
	c.add("uncore.warm_ns", "ns", nil, each(func() {
		w.WarmAccess(int(i&1), (i%residentLines)*line, false)
		i++
	}))
	return nil
}

// rcacheCosts times the result cache around a real Result: deriving a
// key, storing a miss, and serving a hit from memory and from disk.
func rcacheCosts(c *costs) error {
	p := coyote.Params{N: 64, Cores: 16, Seed: 1}
	cfg := coyote.DefaultConfig(16)
	res, err := coyote.RunKernel("axpy-vector", p, cfg)
	if err != nil {
		return err
	}
	store := filepath.Join(c.dir, "rcache")
	rc, err := rcache.Open(store, 0)
	if err != nil {
		return err
	}
	compute := func() (*core.Result, error) { return res, nil }
	// Keys 1..stored are in the cache; what a key hashes is arbitrary.
	var stored uint64
	keyOf := func(i uint64) rcache.Key {
		var k rcache.Key
		for j := 0; j < 8; j++ {
			k[j] = byte(i >> (8 * j))
		}
		return k
	}
	lookup := func(rc *rcache.Cache, i uint64, where string) {
		if _, st, err := rc.GetOrCompute(keyOf(i), compute); err != nil {
			c.fail(err)
		} else if st != rcache.Hit {
			c.fail(fmt.Errorf("rcache: %s lookup was a %v, want a hit", where, st))
		}
	}
	c.add("rcache.key_us", "us", scale(1e3), each(func() {
		_, err := rcache.KeyForPoint("axpy-vector", p, cfg)
		c.fail(err)
	}))
	c.add("rcache.store_us", "us", scale(1e3), each(func() {
		stored++
		_, _, err := rc.GetOrCompute(keyOf(stored), compute)
		c.fail(err)
	}))
	// The newest keys are the ones still in the memory tier.
	var i uint64
	c.add("rcache.hit_mem_us", "us", scale(1e3), each(func() {
		lookup(rc, stored-i%min(stored, 1024), "memory")
		i++
	}))
	// A fresh handle on the same directory has an empty memory tier, so
	// the first lookup of each stored key is served from disk.
	c.add("rcache.hit_disk_us", "us", scale(1e3), func(n int) (time.Duration, float64) {
		n = int(min(uint64(n), stored))
		fresh, err := rcache.Open(store, 0)
		if err != nil {
			c.fail(err)
			return time.Nanosecond, 1
		}
		return stopwatch(func() {
			for k := 1; k <= n; k++ {
				lookup(fresh, uint64(k), "disk")
			}
		}), float64(n)
	})
	return nil
}

// checkpointCosts saves and restores the 32-core N=96 matmul point,
// stopped mid-run.
func checkpointCosts(c *costs) error {
	p := coyote.Params{N: 96, Cores: 32, Seed: 1}
	stop := uint64(50_000)
	if c.tiny {
		p = coyote.Params{N: 12, Cores: 8, Seed: 1}
		stop = 300
	}
	cfg := coyote.DefaultConfig(p.Cores)
	sys, err := coyote.PrepareKernel("matmul-scalar", p, cfg)
	if err != nil {
		return err
	}
	if _, stopped, err := sys.RunTo(stop); err != nil {
		return err
	} else if !stopped {
		return fmt.Errorf("checkpoint fixture finished before cycle %d", stop)
	}
	path := filepath.Join(c.dir, "bench.ckpt")
	meta := checkpoint.Meta{Kernel: "matmul-scalar", Params: p, Config: cfg}
	save := func() error { return checkpoint.Save(path, meta, sys.Program(), sys, nil) }
	load := func() error {
		img, err := checkpoint.Load(path)
		if err == nil {
			_, err = img.Restore(nil)
		}
		return err
	}
	id := c.tr.begin("checkpoint.Save", "")
	err = save()
	c.tr.end(id)
	if err != nil {
		return err
	}
	id = c.tr.begin("checkpoint.Load+Restore", "")
	err = load()
	c.tr.end(id)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	mb := float64(st.Size()) / 1e6
	perSecond := func(ns float64) float64 { return mb / (ns / 1e9) }
	c.fixed["checkpoint.image_mb"] = metric{mb, "MB"}
	c.add("checkpoint.save_mb_s", "MB/s", perSecond, each(func() { c.fail(save()) }))
	c.add("checkpoint.restore_mb_s", "MB/s", perSecond, each(func() { c.fail(load()) }))
	return nil
}

// countWriter counts bytes and discards them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// traceCosts times the Paraver writer: recording one event, and
// rendering the .prv body.
func traceCosts(c *costs) error {
	const harts = 16
	fill := func(n int) *trace.Writer {
		w := trace.NewWriter(harts)
		for i := 0; i < n; i++ {
			w.Event(uint64(i), i%harts, core.TraceL1DMiss, uint64(i)*64)
		}
		return w
	}
	c.add("trace.event_ns", "ns", nil, func(n int) (time.Duration, float64) {
		return stopwatch(func() { fill(n) }), float64(n)
	})
	w := fill(20_000)
	var size countWriter
	if err := w.WritePRV(&size); err != nil {
		return err
	}
	c.add("trace.prv_mb_s", "MB/s", func(ns float64) float64 { return float64(size.n) / 1e6 / (ns / 1e9) },
		each(func() { c.fail(w.WritePRV(&countWriter{})) }))
	return nil
}
