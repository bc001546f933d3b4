package coyote

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/uncore"
)

// goldenKeyPoints are the named design points pinned in
// testdata/rcache/keys.golden. They cover every kernel family and the
// interesting config dimensions, so almost any semantics-affecting
// change to the canonical encoding, the kernels, or the config surface
// perturbs at least one of them.
func goldenKeyPoints() []Point {
	mk := func(name, kernel string, p Params, mut func(*Config)) Point {
		cfg := DefaultConfig(p.Cores)
		if mut != nil {
			mut(&cfg)
		}
		return Point{Name: name, Kernel: kernel, Params: p, Config: cfg}
	}
	return []Point{
		mk("matmul-scalar-8", "matmul-scalar", Params{N: 48, Cores: 8}, nil),
		mk("matmul-vector-8-mcpu", "matmul-vector", Params{N: 48, Cores: 8},
			func(c *Config) { c.Hart.MCPUOffload = true }),
		mk("spmv-gather-16-llc", "spmv-vector-gather", Params{N: 512, Cores: 16, Density: 0.02},
			func(c *Config) { c.Uncore.LLCEnable = true }),
		mk("spmv-ell-4-rowbuf", "spmv-vector-ell", Params{N: 256, Cores: 4},
			func(c *Config) { c.Uncore.MemRowBits = 13; c.Uncore.MemRowHitLat = 40 }),
		mk("stencil-4-pagemap", "stencil-vector", Params{N: 64, Cores: 4},
			func(c *Config) { c.Uncore.Mapping = uncore.PageToBank }),
		mk("axpy-1-default", "axpy-scalar", Params{N: 1024, Cores: 1}, nil),
		mk("spmv-scalar-2-private", "spmv-scalar", Params{N: 128, Cores: 2, Seed: 7},
			func(c *Config) { c.Uncore.L2Shared = false }),
	}
}

const keysGoldenPath = "testdata/rcache/keys.golden"

// TestCacheKeyGolden pins the canonical cache keys of the named points.
// If this test fails, a change altered what existing cache keys mean —
// which is only legal together with a SchemaVersion bump (DESIGN.md
// §11). Bump rcache.SchemaVersion, then regenerate this file with:
//
//	COYOTE_UPDATE_GOLDEN=1 go test -run TestCacheKeyGolden .
func TestCacheKeyGolden(t *testing.T) {
	var lines []string
	for _, pt := range goldenKeyPoints() {
		key, err := KeyForPoint(pt.Kernel, pt.Params, pt.Config)
		if err != nil {
			t.Fatalf("%s: %v", pt.Name, err)
		}
		lines = append(lines, fmt.Sprintf("%-24s %s", pt.Name, key))
	}
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("COYOTE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(keysGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keysGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", keysGoldenPath)
		return
	}

	want, err := os.ReadFile(keysGoldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with COYOTE_UPDATE_GOLDEN=1 go test -run TestCacheKeyGolden .", err)
	}
	if got != string(want) {
		t.Fatalf("canonical cache keys changed.\n\nIf this is intentional it is a cache-schema change: "+
			"bump rcache.SchemaVersion and regenerate with COYOTE_UPDATE_GOLDEN=1.\n\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}

// fieldNames returns the exported field names of a struct type, sorted.
func fieldNames(v any) []string {
	typ := reflect.TypeOf(v)
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			names = append(names, f.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestCacheKeyFieldGuard fails whenever a field is added, removed or
// renamed on any struct that feeds the canonical key — the compile-time
// reminder that the rcache encoder enumerates fields explicitly and a
// new field is, by default, a semantics change:
//
//  1. decide whether the new field affects simulated results;
//  2. add it to rcache.CanonicalBytes (semantics-affecting) or to the
//     documented exclusion list (execution-strategy, which requires a
//     determinism proof in the golden matrix);
//  3. bump rcache.SchemaVersion and regenerate keys.golden;
//  4. update the expected list here.
func TestCacheKeyFieldGuard(t *testing.T) {
	checks := []struct {
		name string
		v    any
		want []string
	}{
		{"core.Config", Config{}, []string{
			"CheckpointAt", "Cores", "CoresPerTile", "Hart",
			"InterleaveQuantum", "MaxCycles", "StackSize", "StackTop", "Uncore",
			"Workers",
		}},
		{"cpu.Config", cpu.Config{}, []string{
			"DisableBlockCache", "L1D", "L1I", "MCPUOffload", "VLenBits",
			"VectorLanes",
		}},
		{"uncore.Config", uncore.Config{}, []string{
			"BanksPerTile", "L2", "L2HitLatency", "L2MSHRs", "L2MissLatency",
			"L2Shared", "LLC", "LLCEnable", "LLCHitLatency", "LocalLatency",
			"Mapping", "MemBanks", "MemBytesPerCyc", "MemCtrls", "MemLatency",
			"MemRowBits", "MemRowHitLat", "NoCLatency", "PrefetchDepth", "Tiles",
		}},
		{"cache.Config", cache.Config{}, []string{
			"LineBytes", "SizeBytes", "Ways", "WriteBack",
		}},
		{"kernels.Params", kernels.Params{}, []string{
			"Cores", "Density", "N", "Seed",
		}},
	}
	for _, c := range checks {
		got := fieldNames(c.v)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s field set changed:\n got  %v\n want %v\n"+
				"New/renamed fields feed (or must be explicitly excluded from) the result-cache key: "+
				"update rcache.CanonicalBytes, bump rcache.SchemaVersion, regenerate testdata/rcache/keys.golden, "+
				"then update this list (see DESIGN.md §11).",
				c.name, got, c.want)
		}
	}
}

// TestInterleaveQuantumIsKeyed: up to cache schema 3 InterleaveQuantum was
// excluded from the key as an execution-strategy field, on the strength of
// a golden matrix that compares engines at each quantum and never across
// quanta. A larger quantum is a coarser timing model with its own cycle
// count, so a run at quantum 8 must not be served quantum 1's result.
func TestInterleaveQuantumIsKeyed(t *testing.T) {
	p := Params{N: 48, Cores: 8}
	q1, q8 := DefaultConfig(8), DefaultConfig(8)
	q8.InterleaveQuantum = 8
	k1, err := KeyForPoint("matmul-scalar", p, q1)
	if err != nil {
		t.Fatal(err)
	}
	k8, err := KeyForPoint("matmul-scalar", p, q8)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k8 {
		t.Fatal("interleave quantum 1 and 8 share a cache key")
	}

	cache := NewResultCache(0)
	first, status, err := RunKernelCached("matmul-scalar", p, q1, cache)
	if err != nil || status != CacheMiss {
		t.Fatalf("quantum 1 into an empty cache: status %v, err %v", status, err)
	}
	got, status, err := RunKernelCached("matmul-scalar", p, q8, cache)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheMiss {
		t.Errorf("quantum 8 after quantum 1: status %v, want a miss", status)
	}
	want, err := RunKernel("matmul-scalar", p, q8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("cached run at quantum 8 reports %d cycles, uncached %d", got.Cycles, want.Cycles)
	}
	if first.Cycles == want.Cycles {
		t.Fatalf("test premise broken: quantum 1 and 8 both take %d cycles", want.Cycles)
	}
}
