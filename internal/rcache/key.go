// Package rcache implements a content-addressed, persistent cache of
// simulation results plus request coalescing for the sweep engine.
//
// The determinism the simulator enforces in CI — bit-identical committed
// state for any worker count and either engine at each interleave quantum
// (the golden matrix of golden_workers_test.go) — is what makes caching
// *sound*:
// an identical canonical key implies an identical Result, so serving a
// repeat design point from the cache is indistinguishable from
// re-simulating it. A canonical key is the SHA-256 of a versioned,
// explicit, field-by-field encoding of
//
//	(SchemaVersion, kernel name, assembled-program hash,
//	 canonicalized Params, canonicalized Config minus
//	 execution-strategy fields)
//
// Execution-strategy fields are *excluded* from the key on purpose,
// each backed by a CI-enforced proof that it cannot change committed
// results:
//
//   - Config.Workers            — golden matrix Workers ∈ {1,2,3,NumCPU}
//   - Hart.DisableBlockCache    — reference engine diffed bit-exact
//   - Config.CheckpointAt       — checkpoint golden suite proves stop-at-C
//   - restore + run-to-end is bit-identical to an uninterrupted run
//
// Everything else in Config is semantics-affecting and hashed —
// InterleaveQuantum included: the golden matrix compares engines at each
// quantum, never across, and a larger quantum is a different (coarser)
// timing model with different cycle counts. Whenever
// a change lands that alters simulated results for an unchanged key
// (new Config field, kernel source edit is covered by the program hash,
// timing-model fix, stats change), SchemaVersion MUST be bumped — the
// key-stability golden test (testdata/rcache/keys.golden) and the
// field-set guard test exist to force that conversation in review.
package rcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
)

// SchemaVersion versions the canonical key encoding AND the simulator
// semantics it stands for. Bump it whenever either changes: a new or
// renamed Config/Params field, a different canonicalization, or any
// change that makes the simulator produce different committed results
// for a key that would hash the same. Stale on-disk entries are simply
// never found again (the version is part of the directory layout), so a
// bump is always safe and never requires a manual cache flush.
//
// 3: requests refused by a full L2 MSHR table wait on one list instead of
// re-entering their bank through an event each per cycle. Results are
// identical wherever every fill is scheduled at least two cycles ahead —
// any configuration with a DRAM and LLC latency of two cycles or more —
// and can differ below that (DESIGN.md §6), so entries written by the
// polling model must not be served.
//
// 4: Config.InterleaveQuantum is hashed. Up to 3 it was excluded as an
// execution-strategy field, so a run at quantum 8 was served the cycle
// count cached at quantum 1 (matmul-scalar, 8 cores, N 48: 166 748
// against 65 865).
const SchemaVersion = 4

// ExcludedConfigFields is the authoritative list of execution-strategy
// Config fields deliberately omitted from the canonical key, as dotted
// paths relative to core.Config. Three things must stay in sync — this
// declaration, the fields CanonicalBytes actually skips, and the
// determinism proofs in the package comment — and the coyotelint
// keytaint analyzer cross-checks the first two against each other and
// against its own source list on every CI run. Adding a field here
// (or removing one) changes which configs share a key: bump
// SchemaVersion and regenerate testdata/rcache/keys.golden.
var ExcludedConfigFields = []string{
	"Workers",
	"Hart.DisableBlockCache",
	"CheckpointAt",
}

// Key is the canonical content address of one simulation point.
type Key [sha256.Size]byte

// String renders the key as lowercase hex — the on-disk blob name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short returns an abbreviated key for log lines.
func (k Key) Short() string { return hex.EncodeToString(k[:6]) }

// KeyForPoint computes the canonical key of (kernel, params, config).
// Params and Config are canonicalized first — defaults filled, derived
// fields computed — so that e.g. Params{Seed: 0} and Params{Seed: 42}
// (which run identically) hash identically too.
func KeyForPoint(kernel string, p kernels.Params, cfg core.Config) (Key, error) {
	ph, err := programHash(kernel)
	if err != nil {
		return Key{}, err
	}
	if p.Cores == 0 {
		p.Cores = cfg.Cores
	}
	p = p.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Key{}, fmt.Errorf("rcache: invalid config: %w", err)
	}
	return sha256.Sum256(CanonicalBytes(kernel, ph, p, cfg)), nil
}

// CanonicalBytes builds the deterministic pre-image a Key hashes. The
// encoding is an explicit, fixed-order `name=value` line per field —
// no reflection, no maps, no JSON — so it is independent of struct
// field order, JSON tag order and map iteration by construction, and
// the mapiter/floatorder lint lanes apply to it like to any simulator
// code. p and cfg must already be canonicalized (see KeyForPoint).
func CanonicalBytes(kernel string, progHash [sha256.Size]byte, p kernels.Params, cfg core.Config) []byte {
	var e enc
	e.u64("schema", SchemaVersion)
	e.str("kernel", kernel)
	e.hex("prog", progHash[:])

	e.i64("params.n", int64(p.N))
	e.i64("params.cores", int64(p.Cores))
	e.f64("params.density", p.Density)
	e.i64("params.seed", p.Seed)

	e.i64("cfg.cores", int64(cfg.Cores))
	e.i64("cfg.corespertile", int64(cfg.CoresPerTile))
	e.u64("cfg.maxcycles", cfg.MaxCycles)
	e.u64("cfg.stacktop", cfg.StackTop)
	e.u64("cfg.stacksize", cfg.StackSize)
	e.i64("cfg.interleavequantum", int64(cfg.InterleaveQuantum))
	// Excluded execution-strategy fields (see package comment):
	// Workers, CheckpointAt.

	h := cfg.Hart
	e.u64("hart.vlenbits", uint64(h.VLenBits))
	e.u64("hart.vectorlanes", uint64(h.VectorLanes))
	e.cacheCfg("hart.l1i", h.L1I)
	e.cacheCfg("hart.l1d", h.L1D)
	e.bool("hart.mcpuoffload", h.MCPUOffload)
	// Excluded: DisableBlockCache.

	u := cfg.Uncore
	e.i64("uncore.tiles", int64(u.Tiles))
	e.i64("uncore.bankspertile", int64(u.BanksPerTile))
	e.cacheCfg("uncore.l2", u.L2)
	e.bool("uncore.l2shared", u.L2Shared)
	e.i64("uncore.mapping", int64(u.Mapping))
	e.u64("uncore.l2hitlatency", u.L2HitLatency)
	e.u64("uncore.l2misslatency", u.L2MissLatency)
	e.i64("uncore.l2mshrs", int64(u.L2MSHRs))
	e.u64("uncore.noclatency", u.NoCLatency)
	e.u64("uncore.locallatency", u.LocalLatency)
	e.i64("uncore.memctrls", int64(u.MemCtrls))
	e.u64("uncore.memlatency", u.MemLatency)
	e.i64("uncore.membytespercyc", int64(u.MemBytesPerCyc))
	e.bool("uncore.llcenable", u.LLCEnable)
	e.cacheCfg("uncore.llc", u.LLC)
	e.u64("uncore.llchitlatency", u.LLCHitLatency)
	e.i64("uncore.prefetchdepth", int64(u.PrefetchDepth))
	e.u64("uncore.memrowbits", uint64(u.MemRowBits))
	e.u64("uncore.memrowhitlat", u.MemRowHitLat)
	e.i64("uncore.membanks", int64(u.MemBanks))

	return e.b
}

// enc accumulates `name=value\n` lines. Field names are fixed
// identifiers and values are rendered unambiguously (decimal, 0/1,
// quoted strings, hex), so the byte stream parses uniquely.
type enc struct{ b []byte }

func (e *enc) line(name, value string) {
	e.b = append(e.b, name...)
	e.b = append(e.b, '=')
	e.b = append(e.b, value...)
	e.b = append(e.b, '\n')
}

func (e *enc) u64(name string, v uint64) { e.line(name, fmt.Sprintf("%d", v)) }
func (e *enc) i64(name string, v int64)  { e.line(name, fmt.Sprintf("%d", v)) }
func (e *enc) str(name, v string)        { e.line(name, fmt.Sprintf("%q", v)) }
func (e *enc) hex(name string, v []byte) { e.line(name, hex.EncodeToString(v)) }

// f64 encodes the exact bit pattern: two floats hash equal iff they are
// the same IEEE-754 value, with no formatting round-trip in between.
func (e *enc) f64(name string, v float64) {
	e.line(name, fmt.Sprintf("%016x", math.Float64bits(v)))
}

func (e *enc) bool(name string, v bool) {
	if v {
		e.line(name, "1")
	} else {
		e.line(name, "0")
	}
}

func (e *enc) cacheCfg(name string, c cache.Config) {
	e.i64(name+".sizebytes", int64(c.SizeBytes))
	e.i64(name+".ways", int64(c.Ways))
	e.i64(name+".linebytes", int64(c.LineBytes))
	e.bool(name+".writeback", c.WriteBack)
}

// progHashes memoizes per-kernel program hashes: kernel sources are
// process-constant, so each kernel is assembled at most once per
// process for key computation.
var progHashes sync.Map // kernel name -> [sha256.Size]byte

// programHash assembles the named kernel and hashes the loadable image
// (bases, text, data, entry and the sorted symbol table). Any edit to a
// kernel's source therefore changes every key derived from it — kernel
// code is part of the content address, not trusted by name.
//
//coyote:globalmut-ok progHashes memoizes a pure function of process-constant kernel sources; concurrent sweeps store identical bytes in any order
func programHash(kernel string) ([sha256.Size]byte, error) {
	if h, ok := progHashes.Load(kernel); ok {
		return h.([sha256.Size]byte), nil
	}
	k, err := kernels.Get(kernel)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	prog, err := asm.Assemble(k.Source)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("rcache: assembling %s: %w", kernel, err)
	}
	h := HashProgram(prog)
	progHashes.Store(kernel, h)
	return h, nil
}

// HashProgram content-addresses an assembled program image. The symbol
// map is hashed in sorted-key order so the digest is independent of map
// iteration order.
func HashProgram(p *asm.Program) [sha256.Size]byte {
	var e enc
	e.u64("textbase", p.TextBase)
	e.hex("text", p.Text)
	e.u64("database", p.DataBase)
	e.hex("data", p.Data)
	e.u64("entry", p.Entry)
	syms := make([]string, 0, len(p.Symbols))
	//coyote:mapiter-ok keys are sorted immediately below, erasing visit order
	for name := range p.Symbols {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	for _, name := range syms {
		e.u64("sym."+name, p.Symbols[name])
	}
	return sha256.Sum256(e.b)
}
