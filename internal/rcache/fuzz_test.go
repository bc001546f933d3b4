package rcache

import (
	"bytes"
	"os"
	"testing"

	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
)

// keyMutator perturbs one dimension of a point. execStrategy mutators
// are the fields the golden determinism matrix proves result-invariant:
// they must NOT change the key. All others MUST.
type keyMutator struct {
	name         string
	execStrategy bool
	apply        func(*core.Config, *kernels.Params)
}

var keyMutators = []keyMutator{
	{"params.N", false, func(c *core.Config, p *kernels.Params) { p.N += 8 }},
	{"params.Seed", false, func(c *core.Config, p *kernels.Params) { p.Seed += 1000 }},
	{"params.Density", false, func(c *core.Config, p *kernels.Params) { p.Density = 0.375 }},
	{"MaxCycles", false, func(c *core.Config, p *kernels.Params) { c.MaxCycles += 999 }},
	{"StackSize", false, func(c *core.Config, p *kernels.Params) { c.StackSize *= 2 }},
	{"L1D.SizeBytes", false, func(c *core.Config, p *kernels.Params) { c.Hart.L1D.SizeBytes *= 2 }},
	{"L2MSHRs", false, func(c *core.Config, p *kernels.Params) { c.Uncore.L2MSHRs++ }},
	{"NoCLatency", false, func(c *core.Config, p *kernels.Params) { c.Uncore.NoCLatency += 5 }},
	{"MemLatency", false, func(c *core.Config, p *kernels.Params) { c.Uncore.MemLatency += 11 }},
	{"LLCEnable", false, func(c *core.Config, p *kernels.Params) { c.Uncore.LLCEnable = !c.Uncore.LLCEnable }},
	{"L2Shared", false, func(c *core.Config, p *kernels.Params) { c.Uncore.L2Shared = !c.Uncore.L2Shared }},
	{"Mapping", false, func(c *core.Config, p *kernels.Params) { c.Uncore.Mapping ^= 1 }},
	{"PrefetchDepth", false, func(c *core.Config, p *kernels.Params) { c.Uncore.PrefetchDepth += 2 }},
	{"MCPUOffload", false, func(c *core.Config, p *kernels.Params) { c.Hart.MCPUOffload = !c.Hart.MCPUOffload }},
	{"InterleaveQuantum", false, func(c *core.Config, p *kernels.Params) { c.InterleaveQuantum += 7 }},
	{"Workers", true, func(c *core.Config, p *kernels.Params) { c.Workers += 3 }},
	{"CheckpointAt", true, func(c *core.Config, p *kernels.Params) { c.CheckpointAt += 1000 }},
	{"DisableBlockCache", true, func(c *core.Config, p *kernels.Params) { c.Hart.DisableBlockCache = !c.Hart.DisableBlockCache }},
}

// FuzzCacheRoundTrip drives random (kernel, config, seed) points
// through the three safety properties of the cache:
//
//  1. round trip — store → load returns the byte-identical Result;
//  2. key sensitivity — mutating one semantics-affecting field changes
//     the canonical key, while execution-strategy fields never do;
//  3. corruption — any single-byte flip or truncation of the on-disk
//     blob is detected on load; the cache can miss, never lie.
func FuzzCacheRoundTrip(f *testing.F) {
	f.Add(byte(0), byte(0), int64(1), uint16(0))
	f.Add(byte(1), byte(3), int64(42), uint16(77))
	f.Add(byte(2), byte(14), int64(7), uint16(300))  // InterleaveQuantum: hashed since schema 4
	f.Add(byte(3), byte(15), int64(9), uint16(512))  // Workers: exec-strategy
	f.Add(byte(4), byte(17), int64(11), uint16(40))  // DisableBlockCache: exec-strategy
	f.Add(byte(5), byte(9), int64(-3), uint16(8191)) // LLC flip, deep flip offset
	f.Fuzz(func(t *testing.T, kSel, mutSel byte, seed int64, flip uint16) {
		names := kernels.Names()
		kernel := names[int(kSel)%len(names)]
		cores := 1 << (int(kSel) % 3) // 1, 2, 4
		cfg := core.DefaultConfig(cores)
		p := kernels.Params{N: 16 + int(uint64(seed)%64), Seed: seed}

		key, err := KeyForPoint(kernel, p, cfg)
		if err != nil {
			t.Fatalf("key for valid point: %v", err)
		}

		// 1. Round trip through the disk tier.
		s, err := OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want := Normalize(fakeResult(seed))
		if err := s.Store(key, want); err != nil {
			t.Fatal(err)
		}
		got, err := s.Load(key)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := marshalResult(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := marshalResult(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("round trip changed the result:\n got %s\nwant %s", gb, wb)
		}

		// 2. Key sensitivity under a single-field mutation.
		mut := keyMutators[int(mutSel)%len(keyMutators)]
		cfg2, p2 := cfg, p
		mut.apply(&cfg2, &p2)
		key2, err := KeyForPoint(kernel, p2, cfg2)
		if err != nil {
			t.Fatalf("key after %s mutation: %v", mut.name, err)
		}
		if mut.execStrategy && key2 != key {
			t.Fatalf("execution-strategy field %s changed the key", mut.name)
		}
		if !mut.execStrategy && key2 == key {
			t.Fatalf("semantics-affecting field %s did NOT change the key", mut.name)
		}

		// 3. Corruption: flip one byte (position and XOR pattern from the
		// fuzzer), then truncate — both must be detected, never served.
		path := s.path(key)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pos := int(flip) % len(data)
		pat := byte(flip>>8) | 1 // never a zero XOR (that would be a no-op)
		corrupted := append([]byte(nil), data...)
		corrupted[pos] ^= pat
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := s.Load(key); err == nil {
			rb, _ := marshalResult(r)
			t.Fatalf("flipped byte %d (xor %#x) not detected; served %s", pos, pat, rb)
		}
		os.Remove(path + ".corrupt")
		if err := os.WriteFile(path, data[:pos], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(key); err == nil {
			t.Fatalf("truncation to %d bytes not detected", pos)
		}
	})
}
