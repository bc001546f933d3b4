package rcache

import (
	"encoding/json"
	"testing"

	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
)

func mustKey(t *testing.T, kernel string, p kernels.Params, cfg core.Config) Key {
	t.Helper()
	k, err := KeyForPoint(kernel, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKeyExcludesExecutionStrategy: every execution-strategy field the
// golden determinism matrix covers must be invisible to the key — all
// strategies share one cache line per logical point.
func TestKeyExcludesExecutionStrategy(t *testing.T) {
	base := core.DefaultConfig(4)
	p := kernels.Params{N: 128}
	want := mustKey(t, "axpy-scalar", p, base)

	muts := map[string]func(*core.Config){
		"Workers":           func(c *core.Config) { c.Workers = 7 },
		"DisableBlockCache": func(c *core.Config) { c.Hart.DisableBlockCache = true },
		"CheckpointAt":      func(c *core.Config) { c.CheckpointAt = 5000 },
	}
	//coyote:mapiter-ok independent subtests; each compares against the same base key
	for name, mut := range muts {
		cfg := base
		mut(&cfg)
		if got := mustKey(t, "axpy-scalar", p, cfg); got != want {
			t.Errorf("%s changed the key: execution strategy must be excluded", name)
		}
	}
}

// TestKeySensitivity: every semantics-affecting dimension must produce
// a distinct key.
func TestKeySensitivity(t *testing.T) {
	base := core.DefaultConfig(4)
	p := kernels.Params{N: 128}
	want := mustKey(t, "axpy-scalar", p, base)

	type variant struct {
		name string
		kern string
		p    kernels.Params
		mut  func(*core.Config)
	}
	variants := []variant{
		{"kernel", "spmv-scalar", p, nil},
		{"params.N", "axpy-scalar", kernels.Params{N: 256}, nil},
		{"params.Seed", "axpy-scalar", kernels.Params{N: 128, Seed: 7}, nil},
		{"params.Density", "axpy-scalar", kernels.Params{N: 128, Density: 0.5}, nil},
		{"Cores", "axpy-scalar", p, func(c *core.Config) {
			*c = core.DefaultConfig(8)
		}},
		{"NoCLatency", "axpy-scalar", p, func(c *core.Config) { c.Uncore.NoCLatency = 32 }},
		{"LLCEnable", "axpy-scalar", p, func(c *core.Config) { c.Uncore.LLCEnable = true }},
		{"L2Shared", "axpy-scalar", p, func(c *core.Config) { c.Uncore.L2Shared = false }},
		{"L1D.SizeBytes", "axpy-scalar", p, func(c *core.Config) { c.Hart.L1D.SizeBytes = 32 << 10 }},
		{"MCPUOffload", "axpy-scalar", p, func(c *core.Config) { c.Hart.MCPUOffload = true }},
		{"MaxCycles", "axpy-scalar", p, func(c *core.Config) { c.MaxCycles = 12345 }},
		{"StackSize", "axpy-scalar", p, func(c *core.Config) { c.StackSize = 128 << 10 }},
		{"PrefetchDepth", "axpy-scalar", p, func(c *core.Config) { c.Uncore.PrefetchDepth = 4 }},
		{"MemRowBits", "axpy-scalar", p, func(c *core.Config) { c.Uncore.MemRowBits = 13 }},
		{"InterleaveQuantum", "axpy-scalar", p, func(c *core.Config) { c.InterleaveQuantum = 64 }},
	}
	seen := map[Key]string{want: "base"}
	for _, v := range variants {
		cfg := base
		if v.mut != nil {
			v.mut(&cfg)
		}
		got := mustKey(t, v.kern, v.p, cfg)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s", v.name, prev)
		}
		seen[got] = v.name
	}
}

// TestKeyCanonicalization: representations of the same logical point —
// unset defaults vs. spelled-out defaults, derived fields zero vs.
// filled — must hash identically.
func TestKeyCanonicalization(t *testing.T) {
	cfg := core.DefaultConfig(4)
	implicit := mustKey(t, "axpy-scalar", kernels.Params{}, cfg)
	explicit := mustKey(t, "axpy-scalar",
		kernels.Params{N: 64, Cores: 4, Density: 0.02, Seed: 42}, cfg)
	if implicit != explicit {
		t.Error("default-filled params hash differently from explicit defaults")
	}

	derived := cfg
	derived.Uncore.Tiles = 0 // left zero: Validate derives it
	if mustKey(t, "axpy-scalar", kernels.Params{N: 64}, derived) !=
		mustKey(t, "axpy-scalar", kernels.Params{N: 64}, cfg) {
		t.Error("zero derived field hashes differently from the filled one")
	}
}

// TestKeyIndependentOfJSONFieldOrder: configs loaded from JSON files
// (cmd/coyote -config) hash by field identity, not by the order the
// file happens to list them in.
func TestKeyIndependentOfJSONFieldOrder(t *testing.T) {
	docs := []string{
		`{"Cores": 4, "CoresPerTile": 4, "MaxCycles": 1000000, "Workers": 1}`,
		`{"Workers": 3, "MaxCycles": 1000000, "CoresPerTile": 4, "Cores": 4}`,
	}
	var keys []Key
	for _, doc := range docs {
		cfg := core.DefaultConfig(4)
		if err := json.Unmarshal([]byte(doc), &cfg); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, mustKey(t, "axpy-scalar", kernels.Params{N: 64}, cfg))
	}
	if keys[0] != keys[1] {
		t.Error("JSON field order (or excluded Workers) leaked into the key")
	}
}

// TestKeyStableAcrossCalls: the canonical pre-image contains no map
// iteration, addresses or clocks — two computations must agree.
func TestKeyStableAcrossCalls(t *testing.T) {
	cfg := core.DefaultConfig(2)
	p := kernels.Params{N: 96, Seed: 5}
	for _, kernel := range kernels.Names() {
		a := mustKey(t, kernel, p, cfg)
		b := mustKey(t, kernel, p, cfg)
		if a != b {
			t.Fatalf("%s: key not stable across calls", kernel)
		}
	}
}

// TestProgramHashCoversSymbols: the program digest must see the symbol
// table through sorted keys, and changes to any component must change
// the digest.
func TestProgramHashCoversSymbols(t *testing.T) {
	k, err := kernels.Get("axpy-scalar")
	if err != nil {
		t.Fatal(err)
	}
	_ = k
	a, err := programHash("axpy-scalar")
	if err != nil {
		t.Fatal(err)
	}
	b, err := programHash("axpy-scalar")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("program hash not stable")
	}
	c, err := programHash("spmv-scalar")
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct kernels share a program hash")
	}
}
