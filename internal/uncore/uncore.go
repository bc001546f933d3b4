// Package uncore models everything below the private L1s — the part of
// Coyote that Sparta simulates: banked L2 caches (shared or tile-private,
// with MSHRs and two address-to-bank mapping policies), an idealized
// crossbar NoC with fixed configurable latencies, and bandwidth-limited
// memory controllers. All components are event-driven units on an
// evsim.Engine; the orchestrator advances the engine in lock-step with the
// instruction-level CPU model (paper §III-A).
package uncore

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/evsim"
	"github.com/coyote-sim/coyote/internal/san"
)

// MappingPolicy selects which address bits pick the L2 bank that owns a
// line (paper §III-A: "page-to-bank and set-interleaving").
type MappingPolicy int

const (
	// SetInterleave uses the bits directly above the line offset, spreading
	// consecutive lines across banks.
	SetInterleave MappingPolicy = iota
	// PageToBank uses the bits above the 4 KiB page offset, keeping each
	// page in one bank.
	PageToBank
)

func (p MappingPolicy) String() string {
	switch p {
	case SetInterleave:
		return "set-interleave"
	case PageToBank:
		return "page-to-bank"
	default:
		return fmt.Sprintf("MappingPolicy(%d)", int(p))
	}
}

// ParseMapping resolves a policy name.
func ParseMapping(s string) (MappingPolicy, error) {
	switch s {
	case "set-interleave", "":
		return SetInterleave, nil
	case "page-to-bank":
		return PageToBank, nil
	default:
		return 0, fmt.Errorf("uncore: unknown mapping policy %q", s)
	}
}

// Config describes the uncore topology and latencies.
type Config struct {
	Tiles          int
	BanksPerTile   int
	L2             cache.Config // geometry of one bank
	L2Shared       bool         // line space interleaved across ALL banks vs per-tile
	Mapping        MappingPolicy
	L2HitLatency   evsim.Cycle // bank lookup on hit
	L2MissLatency  evsim.Cycle // bank lookup + miss issue
	L2MSHRs        int         // max in-flight misses per bank
	NoCLatency     evsim.Cycle // crossbar traversal, cross-tile
	LocalLatency   evsim.Cycle // core ↔ same-tile bank hop
	MemCtrls       int
	MemLatency     evsim.Cycle // DRAM access latency
	MemBytesPerCyc int         // per-controller bandwidth

	// Optional shared last-level cache in front of the memory controllers
	// (the third cache level of the paper's Figure 2 example): one slice
	// per controller, lines interleaved across slices.
	LLCEnable     bool
	LLC           cache.Config
	LLCHitLatency evsim.Cycle

	// PrefetchDepth > 0 makes each L2 bank issue next-line prefetches for
	// that many sequential lines on every demand miss — the "prefetching,
	// streaming" data-management policies the paper lists as next steps
	// (§III-A).
	PrefetchDepth int

	// MemRowBits > 0 enables a DRAM row-buffer model in the memory
	// controllers: accesses hitting the open row (same addr >> MemRowBits)
	// complete in MemRowHitLat instead of MemLatency. MemBanks open rows
	// are kept per controller (default 8). Part of the memory controller
	// modelling the paper marks as work in progress.
	MemRowBits   uint
	MemRowHitLat evsim.Cycle
	MemBanks     int
}

// DefaultConfig mirrors DESIGN.md §6.
func DefaultConfig(tiles int) Config {
	return Config{
		Tiles:        tiles,
		BanksPerTile: 2,
		L2: cache.Config{
			SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, WriteBack: true,
		},
		L2Shared:       true,
		Mapping:        SetInterleave,
		L2HitLatency:   10,
		L2MissLatency:  4,
		L2MSHRs:        16,
		NoCLatency:     8,
		LocalLatency:   2,
		MemCtrls:       max(1, tiles/4),
		MemLatency:     100,
		MemBytesPerCyc: 32,
		LLC: cache.Config{
			SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, WriteBack: true,
		},
		LLCHitLatency: 30,
		MemRowHitLat:  40,
	}
}

// Validate checks topology consistency.
func (c Config) Validate() error {
	if c.Tiles <= 0 || c.BanksPerTile <= 0 {
		return fmt.Errorf("uncore: need positive tiles (%d) and banks per tile (%d)",
			c.Tiles, c.BanksPerTile)
	}
	nb := c.Tiles * c.BanksPerTile
	if nb&(nb-1) != 0 && c.L2Shared {
		return fmt.Errorf("uncore: shared L2 needs a power-of-two total bank count, got %d", nb)
	}
	if c.BanksPerTile&(c.BanksPerTile-1) != 0 {
		return fmt.Errorf("uncore: banks per tile must be a power of two, got %d", c.BanksPerTile)
	}
	if c.MemCtrls <= 0 {
		return fmt.Errorf("uncore: need at least one memory controller")
	}
	if c.MemBytesPerCyc <= 0 {
		return fmt.Errorf("uncore: memory bandwidth must be positive")
	}
	if c.L2MSHRs <= 0 {
		return fmt.Errorf("uncore: L2 MSHRs must be positive")
	}
	if c.PrefetchDepth < 0 {
		return fmt.Errorf("uncore: prefetch depth must be non-negative")
	}
	if c.LLCEnable {
		if err := c.LLC.Validate(); err != nil {
			return fmt.Errorf("uncore: LLC: %w", err)
		}
	}
	if c.MemRowBits > 0 && c.MemRowHitLat == 0 {
		return fmt.Errorf("uncore: row-buffer model needs MemRowHitLat")
	}
	return c.L2.Validate()
}

// Done is an allocation-free completion token: F is a long-lived
// pre-bound callback (one per hart, per pooled transaction, …) and Arg is
// a word of context distinguishing the completing request (a packed
// register number, an address …). The zero Done means "no completion".
// Carrying (F, Arg) by value through the uncore replaces the
// closure-per-miss style that dominated steady-state allocation.
//
// H is F's identity in the engine's callback registry — the serializable
// name of the function pointer. Every production Done carries it, so a
// pending completion can be checkpointed as (H, Arg) and resolved against
// the restoring engine's registry. A Done with F != nil but H == 0
// (FuncDone, test harnesses) still executes normally; it just cannot be
// checkpointed while in flight.
type Done struct {
	F   func(arg uint64)
	Arg uint64
	H   evsim.Handle
}

// Run invokes the completion; a zero Done is a no-op.
func (d Done) Run() {
	if d.F != nil {
		d.F(d.Arg)
	}
}

// FuncDone wraps a plain callback into a Done. Convenient for tests and
// one-off harness code; allocates a closure, so the hot paths build Done
// values from pre-bound callbacks instead.
func FuncDone(f func()) Done {
	return Done{F: func(uint64) { f() }}
}

// Request is one line-granular transaction entering the uncore.
type Request struct {
	Tile  int    // requesting tile (routing + private-L2 bank choice)
	Addr  uint64 // line base address
	Write bool   // writeback: no response expected
	// Done fires when the line is available at the L1 boundary. Zero for
	// writes.
	Done Done
}

// Uncore owns the banks, controllers and crossbar.
type Uncore struct {
	cfg   Config
	eng   *evsim.Engine
	banks []*L2Bank
	mcs   []*MemCtrl
	llcs  []*LLCSlice // nil unless cfg.LLCEnable
	mcpu  *MCPU
	noc   *NoC
	reg   evsim.Registry

	backpressure // requests refused by a full L2 MSHR table (backpressure.go)

	lineShift uint

	// bankShift/bankMask/bankShared are bankFor's mapping, folded to a
	// shift+mask at construction: the policy switch is constant per run,
	// and Validate enforces power-of-two bank counts for both sharing
	// modes. bankShared copies cfg.L2Shared next to the other two so the
	// hot path reads one cache line instead of reaching into cfg.
	bankShift  uint
	bankMask   uint64
	bankShared bool
}

// New wires up the uncore on an engine.
func New(cfg Config, eng *evsim.Engine) (*Uncore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Uncore{cfg: cfg, eng: eng}
	for ls := cfg.L2.LineBytes; ls > 1; ls >>= 1 {
		u.lineShift++
	}
	u.noc = newNoC(eng, cfg.NoCLatency, cfg.LocalLatency)
	u.reg.Register(u.noc)
	u.mcpu = newMCPU(u)
	u.reg.Register(u.mcpu)
	for i := 0; i < cfg.MemCtrls; i++ {
		mc := newMemCtrl(i, eng, cfg)
		u.mcs = append(u.mcs, mc)
		u.reg.Register(mc)
		if cfg.LLCEnable {
			slice, err := newLLCSlice(i, u)
			if err != nil {
				return nil, err
			}
			u.llcs = append(u.llcs, slice)
			u.reg.Register(slice)
		}
	}
	for t := 0; t < cfg.Tiles; t++ {
		for b := 0; b < cfg.BanksPerTile; b++ {
			bank, err := newL2Bank(len(u.banks), t, u)
			if err != nil {
				return nil, err
			}
			u.banks = append(u.banks, bank)
			u.reg.Register(bank)
		}
	}
	switch cfg.Mapping {
	case PageToBank:
		u.bankShift = 12
	case SetInterleave:
		u.bankShift = u.lineShift
	default: // unknown policies behave like SetInterleave
		u.bankShift = u.lineShift
	}
	u.tickFn = u.tick
	u.tickH = eng.RegisterFn(u.tickFn)
	u.lateFn = u.lateTick
	u.lateH = eng.RegisterFn(u.lateFn)
	u.bankShared = cfg.L2Shared
	if cfg.L2Shared {
		u.bankMask = uint64(len(u.banks) - 1)
	} else {
		u.bankMask = uint64(cfg.BanksPerTile - 1)
	}
	return u, nil
}

// Config returns the uncore configuration.
func (u *Uncore) Config() Config { return u.cfg }

// Banks returns the L2 banks (for statistics inspection).
func (u *Uncore) Banks() []*L2Bank { return u.banks }

// MemCtrls returns the memory controllers.
func (u *Uncore) MemCtrls() []*MemCtrl { return u.mcs }

// NoC returns the crossbar.
func (u *Uncore) NoC() *NoC { return u.noc }

// Registry exposes every unit for statistics reporting.
func (u *Uncore) Registry() *evsim.Registry { return &u.reg }

// bankFor maps a line address (and requesting tile) to its owning bank
// via the shift+mask precomputed in New.
func (u *Uncore) bankFor(tile int, addr uint64) *L2Bank {
	local := (addr >> u.bankShift) & u.bankMask
	if u.bankShared {
		return u.banks[local]
	}
	return u.banks[uint64(tile)*uint64(u.cfg.BanksPerTile)+local]
}

// mcFor interleaves lines across memory controllers.
func (u *Uncore) mcFor(addr uint64) *MemCtrl {
	return u.mcs[(addr>>u.lineShift)%uint64(len(u.mcs))]
}

// memSide routes a transaction leaving the L2 level: through the LLC
// slice when enabled, straight to the memory controller otherwise.
func (u *Uncore) memSide(addr uint64, write bool, extraDelay evsim.Cycle, done Done) {
	idx := (addr >> u.lineShift) % uint64(len(u.mcs))
	if u.llcs != nil {
		u.llcs[idx].request(addr, write, extraDelay, done)
		return
	}
	u.mcs[idx].request(addr, write, extraDelay, done)
}

// Waiting returns how many requests a full L2 MSHR table has refused and
// that are waiting to be examined again.
func (u *Uncore) Waiting() int { return len(u.waiting) + len(u.late) }

// LLCs returns the LLC slices (nil when disabled).
func (u *Uncore) LLCs() []*LLCSlice { return u.llcs }

// Submit injects a request at the current engine time. The request first
// traverses the interconnect to its bank (local hop if the bank lives in
// the requester's tile), is looked up, possibly misses to a memory
// controller, and finally Done fires back at the core side. The request
// value travels through the bank's inbound port FIFO — no allocation.
//
//coyote:allocfree
func (u *Uncore) Submit(req Request) {
	bank := u.bankFor(req.Tile, req.Addr)
	if bank.tile != req.Tile {
		u.noc.remoteMsgs++
		bank.remoteIn.Send(req)
	} else {
		u.noc.localMsgs++
		bank.localIn.Send(req)
	}
}

// Audit asserts the uncore's end-of-run invariants in the coyotesan
// build: no MSHR still holds an in-flight line after the engine drained
// (a leaked entry means a fill was dropped), no refused request is still
// waiting for one, and every tag store agrees with its shadow directory.
// No-op in the default build.
func (u *Uncore) Audit() {
	if !san.Enabled {
		return
	}
	now := u.eng.Now()
	san.Check(u.Waiting() == 0 && !u.ticking, now, "l2bank.waiting",
		"requests still wait on a full MSHR table after the engine drained",
		uint64(len(u.waiting)), uint64(len(u.late)))
	for _, b := range u.banks {
		b.san.Drained(now)
		b.tags.Occupancy() // cross-checks the tag store against its shadow
	}
	for _, l := range u.llcs {
		l.san.Drained(now)
		l.tags.Occupancy()
	}
}

// Snapshot returns all unit counters keyed "unit.counter".
func (u *Uncore) Snapshot() map[string]uint64 { return u.reg.Snapshot() }

// ResetStats zeroes every unit's counters while leaving cache contents,
// open rows and in-flight state untouched — the warm-up/measure split.
func (u *Uncore) ResetStats() {
	u.settle() // examinations skipped so far belong to the window being discarded
	for _, b := range u.banks {
		b.tags.ResetStats()
		b.reads, b.writes, b.missesIssued = 0, 0, 0
		b.mshrMerges, b.mshrConflicts, b.prefetches = 0, 0, 0
		b.peakMSHR = 0
	}
	for _, mc := range u.mcs {
		mc.reads, mc.writes, mc.stallCycle = 0, 0, 0
		mc.rowHits, mc.rowMisses = 0, 0
	}
	for _, l := range u.llcs {
		l.tags.ResetStats()
		l.reads, l.writes, l.mshrMerges = 0, 0, 0
	}
	u.mcpu.gathers, u.mcpu.scatters = 0, 0
	u.mcpu.elements, u.mcpu.lines = 0, 0
	u.noc.localMsgs, u.noc.remoteMsgs = 0, 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
