// Package core implements the Coyote orchestrator: the component that
// couples the instruction-level CPU model (internal/cpu, the Spike role)
// with the event-driven memory hierarchy (internal/uncore on
// internal/evsim, the Sparta role). Every cycle it attempts to execute one
// instruction on each active core, injects L1 misses into the uncore,
// advances the event model to the current cycle, and wakes cores whose
// pending registers become available — the simulation loop of paper
// §III-A — and passes over the cycles in which no core has anything another
// component could observe.
package core

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/uncore"
)

// Config describes a whole simulated system.
type Config struct {
	// Cores is the number of simulated harts.
	Cores int
	// CoresPerTile groups cores into VAS-like tiles (ACME uses 8).
	CoresPerTile int
	// Hart configures the per-core model (VPU geometry, L1 caches).
	Hart cpu.Config
	// Uncore configures L2 banks, NoC and memory controllers. Its Tiles
	// field is derived from Cores/CoresPerTile and may be left zero.
	Uncore uncore.Config
	// InterleaveQuantum > 1 re-enables Spike-style interleaving: up to
	// this many instructions run back-to-back on a core before the
	// orchestrator moves on. 1 (the Coyote default) gives cycle-accurate
	// interleaving across cores; larger values trade fidelity for
	// simulation speed (paper Figure 3 discussion).
	InterleaveQuantum int
	// Workers sets how many host goroutines step harts inside each
	// simulated cycle. 1 (the default) keeps the classic fully sequential
	// loop; larger values enable the two-phase speculative parallel
	// orchestrator (parallel.go), whose committed state — traces, cycle
	// counts, every statistic — is bit-identical for any worker count.
	Workers int
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
	// StackTop is the initial stack pointer of hart 0; each subsequent
	// hart gets a stack StackSize below the previous one.
	StackTop  uint64
	StackSize uint64
	// CheckpointAt > 0 asks the harness driver to stop at this cycle
	// (System.RunTo) and serialize the machine. Purely an execution-
	// strategy knob: a run that checkpoints at cycle C and resumes
	// produces bit-identical results to one that never stops, which is
	// exactly what the checkpoint golden suite proves.
	CheckpointAt uint64
}

// DefaultConfig builds the DESIGN.md §6 system for the given core count.
func DefaultConfig(cores int) Config {
	cpt := 8
	if cores < cpt {
		cpt = cores
	}
	tiles := (cores + cpt - 1) / cpt
	return Config{
		Cores:             cores,
		CoresPerTile:      cpt,
		Hart:              cpu.DefaultConfig(),
		Uncore:            uncore.DefaultConfig(tiles),
		InterleaveQuantum: 1,
		Workers:           1,
		MaxCycles:         2_000_000_000,
		StackTop:          0x9000_0000,
		StackSize:         64 << 10,
	}
}

// Tiles returns the tile count implied by the config.
func (c Config) Tiles() int {
	return (c.Cores + c.CoresPerTile - 1) / c.CoresPerTile
}

// Validate checks the configuration and fills derived fields.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("core: need at least one core")
	}
	if c.CoresPerTile <= 0 {
		return fmt.Errorf("core: cores per tile must be positive")
	}
	if c.InterleaveQuantum <= 0 {
		c.InterleaveQuantum = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000_000
	}
	if c.StackTop == 0 {
		c.StackTop = 0x9000_0000
	}
	if c.StackSize == 0 {
		c.StackSize = 64 << 10
	}
	c.Uncore.Tiles = c.Tiles()
	if c.Uncore.MemCtrls == 0 {
		c.Uncore.MemCtrls = 1
	}
	return c.Uncore.Validate()
}
