package coyote

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// canonical renders every simulated-time observable of a Result — cycle
// count, instruction counts, per-hart stats, cache counters and the full
// uncore counter snapshot — into one comparable string. Wall-clock-only
// fields are deliberately excluded.
func canonical(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d instrs=%d\n", res.Cycles, res.Instructions)
	fmt.Fprintf(&b, "l1i=%+v\nl1d=%+v\n", res.L1I, res.L1D)
	for i, hs := range res.HartStats {
		fmt.Fprintf(&b, "hart%d=%+v\n", i, hs)
	}
	keys := make([]string, 0, len(res.UncoreRaw))
	for k := range res.UncoreRaw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, res.UncoreRaw[k])
	}
	return b.String()
}

// TestTraceDeterminismGolden runs every kernel twice with a Paraver
// tracer attached and demands the rendered .prv streams be byte-identical
// — a stronger check than aggregate statistics: the trace exposes the
// exact cycle and order of every miss, stall and wakeup, so any hidden
// source of nondeterminism (map iteration, wall-clock leakage) shows up
// as a diff even when the totals happen to agree.
func TestTraceDeterminismGolden(t *testing.T) {
	params := Params{N: 64, Cores: 4, Density: 0.05}
	for _, name := range Kernels() {
		t.Run(name, func(t *testing.T) {
			run := func() []byte {
				cfg := DefaultConfig(4)
				sys, err := PrepareKernel(name, params, cfg)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				tw := NewTraceWriter(cfg.Cores)
				sys.Tracer = tw
				if _, err := sys.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				var buf bytes.Buffer
				if err := tw.WritePRV(&buf); err != nil {
					t.Fatalf("rendering .prv: %v", err)
				}
				return buf.Bytes()
			}
			first := run()
			second := run()
			if !bytes.Equal(first, second) {
				line := 1
				for i := 0; i < len(first) && i < len(second); i++ {
					if first[i] != second[i] {
						break
					}
					if first[i] == '\n' {
						line++
					}
				}
				t.Errorf("two identical runs produced different .prv traces (%d vs %d bytes, first diff around line %d)",
					len(first), len(second), line)
			}
		})
	}
}

// TestDeterminismGolden runs every registered kernel twice at 4 cores and
// demands byte-identical simulated-time statistics — the repeatability
// property the paper leans on for design-space exploration ("the
// simulations are deterministic").
func TestDeterminismGolden(t *testing.T) {
	params := Params{N: 64, Cores: 4, Density: 0.05}
	for _, name := range Kernels() {
		t.Run(name, func(t *testing.T) {
			run := func() string {
				res, err := RunKernel(name, params, DefaultConfig(4))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return canonical(res)
			}
			first := run()
			if second := run(); second != first {
				t.Errorf("two identical runs diverged:\n--- first\n%s--- second\n%s",
					first, second)
			}
		})
	}
}
