// Package coyote is the public API of Coyote-Go, an execution-driven
// multicore RISC-V simulator for HPC design-space exploration, reproducing
// "Coyote: An Open Source Simulation Tool to Enable RISC-V in HPC"
// (Perez, Fell, Davis — DATE 2021).
//
// The simulator couples an instruction-level RV64IMAFD+V functional model
// with per-core L1 caches (the role Spike plays in Coyote) to an
// event-driven memory hierarchy of banked L2s, an idealized crossbar NoC
// and bandwidth-limited memory controllers (the role Sparta plays). An
// orchestrator steps every active core one instruction per cycle, stalls
// cores on RAW dependencies against in-flight misses, and keeps the event
// model in sync.
//
// Quick start:
//
//	cfg := coyote.DefaultConfig(8)
//	res, err := coyote.RunKernel("matmul-scalar", coyote.Params{N: 48, Cores: 8}, cfg)
//	fmt.Print(res.Report())
//
// Arbitrary bare-metal programs can also be assembled from RISC-V source
// with Assemble and run on a System built with NewSystem.
package coyote

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/rcache"
	"github.com/coyote-sim/coyote/internal/trace"
)

// Config describes a simulated system: core count, tiling, per-core VPU
// and L1 geometry, and the uncore (L2 banks, NoC, memory controllers).
type Config = core.Config

// Result carries everything a run produced: cycles, instructions,
// per-hart statistics, cache and memory-traffic counters, and wall-clock
// throughput (MIPS — the paper's Figure 3 metric).
type Result = core.Result

// HostStats is Result.Host: where the run loop's own work went.
type HostStats = core.HostStats

// Params parameterises a built-in kernel (problem size, hart count,
// sparsity, seed).
type Params = kernels.Params

// System is a fully wired simulated machine; use it directly to run
// custom programs or to inspect architectural state after a run.
type System = core.System

// Program is an assembled bare-metal binary image.
type Program = asm.Program

// Kernel is one of the built-in paper workloads.
type Kernel = kernels.Kernel

// TraceWriter records Paraver traces (.prv/.pcf/.row) of L1 misses and
// stalls; attach one to System.Tracer before Run.
type TraceWriter = trace.Writer

// DefaultConfig returns the DESIGN.md §6 system for the given core count:
// 8-core tiles, 16 KiB L1s, two 256 KiB L2 banks per tile (shared),
// crossbar NoC, one memory controller per four tiles.
func DefaultConfig(cores int) Config { return core.DefaultConfig(cores) }

// NewSystem builds a simulated machine from cfg.
func NewSystem(cfg Config) (*System, error) { return core.New(cfg) }

// Assemble translates RISC-V assembly source into a loadable Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Kernels lists the built-in kernel names.
func Kernels() []string { return kernels.Names() }

// GetKernel returns a built-in kernel by name.
func GetKernel(name string) (*Kernel, error) { return kernels.Get(name) }

// NewTraceWriter creates a Paraver trace writer for a system of n harts.
func NewTraceWriter(nHarts int) *TraceWriter { return trace.NewWriter(nHarts) }

// PrepareKernel assembles a built-in kernel, loads it into a fresh system
// built from cfg, and runs the kernel's data setup. The caller runs the
// returned system (optionally attaching a tracer first) and may verify
// with VerifyKernel.
func PrepareKernel(name string, p Params, cfg Config) (*System, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	if p.Cores == 0 {
		p.Cores = cfg.Cores
	}
	if p.Cores != cfg.Cores {
		return nil, fmt.Errorf("coyote: params request %d cores but config has %d",
			p.Cores, cfg.Cores)
	}
	prog, err := asm.Assemble(k.Source)
	if err != nil {
		return nil, fmt.Errorf("coyote: assembling %s: %w", name, err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	sys.LoadProgram(prog)
	k.Setup(sys.Mem, sys.MustSymbol("args"), p)
	return sys, nil
}

// VerifyKernel checks a finished run's outputs against the host-side
// reference implementation.
func VerifyKernel(sys *System, name string, p Params) error {
	k, err := kernels.Get(name)
	if err != nil {
		return err
	}
	if p.Cores == 0 {
		p.Cores = sys.Config().Cores
	}
	return k.Verify(sys.Mem, sys.MustSymbol("args"), p)
}

// RunKernel prepares, runs and verifies a built-in kernel in one call.
//
//coyote:globalfree
func RunKernel(name string, p Params, cfg Config) (*Result, error) {
	if p.Cores == 0 {
		p.Cores = cfg.Cores
	}
	sys, err := PrepareKernel(name, p, cfg)
	if err != nil {
		return nil, err
	}
	res, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("coyote: running %s: %w", name, err)
	}
	if err := VerifyKernel(sys, name, p); err != nil {
		return nil, fmt.Errorf("coyote: %s produced wrong results: %w", name, err)
	}
	return res, nil
}

// ResultCache is the content-addressed, persistent simulation-result
// cache with request coalescing (internal/rcache). CI-enforced
// determinism — bit-identical committed state for any worker count and
// interleave — is what makes it sound: identical canonical key implies
// identical Result.
type ResultCache = rcache.Cache

// CacheKey is the canonical content address of one simulation point.
type CacheKey = rcache.Key

// CacheStatus reports how a cached lookup was satisfied: CacheMiss (the
// point was simulated), CacheHit (served from memory or disk), or
// CacheCoalesced (shared an identical in-flight simulation).
type CacheStatus = rcache.Status

// CacheStats snapshots a ResultCache's outcome counters.
type CacheStats = rcache.Stats

const (
	CacheMiss      = rcache.Miss
	CacheHit       = rcache.Hit
	CacheCoalesced = rcache.Coalesced
)

// CacheSchemaVersion is the result-cache key schema version; it must be
// bumped with any semantics-affecting simulator change (see
// internal/rcache and DESIGN.md §11).
const CacheSchemaVersion = rcache.SchemaVersion

// OpenResultCache opens a persistent result cache rooted at dir
// (DefaultCacheDir() when dir is empty) with an in-process LRU of
// memEntries entries (a default bound when <= 0) in front of it.
func OpenResultCache(dir string, memEntries int) (*ResultCache, error) {
	return rcache.Open(dir, memEntries)
}

// NewResultCache creates a memory-only result cache: in-process reuse
// and single-flight coalescing without persistence.
func NewResultCache(memEntries int) *ResultCache { return rcache.New(memEntries) }

// DefaultCacheDir returns the default persistent cache location
// (~/.cache/coyote or the OS equivalent).
func DefaultCacheDir() (string, error) { return rcache.DefaultDir() }

// KeyForPoint computes the canonical cache key of (kernel, params,
// config): the SHA-256 of a versioned explicit encoding of the kernel's
// assembled program and every semantics-affecting parameter. Execution
// strategy (Workers, the execution engine) is excluded — the golden
// determinism matrix proves it cannot change results, so all strategies
// share one cache line per logical point. InterleaveQuantum is hashed: a
// larger quantum is a coarser timing model, not a strategy.
func KeyForPoint(kernel string, p Params, cfg Config) (CacheKey, error) {
	return rcache.KeyForPoint(kernel, p, cfg)
}

// RunKernelCached is RunKernel backed by a result cache: on a repeat
// point the simulation is skipped entirely and the cached Result is
// returned (with WallTime 0 — served points cost no simulation time).
// A nil cache degrades to a plain RunKernel reported as CacheMiss.
// Verification still happens on every real simulation (inside the
// compute path); hits were verified when first computed, and the
// cache's verify sampling (ResultCache.SetVerify) can re-prove any
// fraction of them on top.
//
//coyote:globalfree
func RunKernelCached(name string, p Params, cfg Config, c *ResultCache) (*Result, CacheStatus, error) {
	if c == nil {
		res, err := RunKernel(name, p, cfg)
		return res, CacheMiss, err
	}
	key, err := KeyForPoint(name, p, cfg)
	if err != nil {
		return nil, CacheMiss, err
	}
	return c.GetOrCompute(key, func() (*Result, error) {
		return RunKernel(name, p, cfg)
	})
}
