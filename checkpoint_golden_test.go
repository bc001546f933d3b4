package coyote

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/san"
)

func renderPRV(t *testing.T, tw *TraceWriter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tw.WritePRV(&buf); err != nil {
		t.Fatalf("rendering .prv: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointGolden proves the checkpoint/restore tentpole property:
// for every kernel, stopping at a mid-run cycle C, serializing the
// machine to disk, restoring into a FRESH system and running to the end
// reproduces the uninterrupted run's statistics and Paraver trace
// byte-for-byte — across the interleave × workers execution-strategy
// matrix, so the quiescent stop boundary holds under the parallel
// speculative orchestrator too.
func TestCheckpointGolden(t *testing.T) {
	params := Params{N: 64, Cores: 4, Density: 0.05}
	modes := []struct{ interleave, workers int }{
		{1, 1}, {1, 4}, {8, 1}, {8, 4},
	}
	for _, name := range Kernels() {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/il%d-w%d", name, m.interleave, m.workers), func(t *testing.T) {
				cfg := DefaultConfig(4)
				cfg.InterleaveQuantum = m.interleave
				cfg.Workers = m.workers

				// Uninterrupted reference run.
				sysFull, err := PrepareKernel(name, params, cfg)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				twFull := NewTraceWriter(cfg.Cores)
				sysFull.Tracer = twFull
				resFull, err := sysFull.Run()
				if err != nil {
					t.Fatalf("full run: %v", err)
				}
				wantStats := canonical(resFull)
				wantPRV := renderPRV(t, twFull)

				stopAt := resFull.Cycles / 2
				if stopAt == 0 {
					t.Skipf("run too short to split (%d cycles)", resFull.Cycles)
				}
				path := filepath.Join(t.TempDir(), "run.ckpt")
				ckCfg := cfg
				ckCfg.CheckpointAt = stopAt // recorded in the image; key-invariant
				twPre := NewTraceWriter(cfg.Cores)
				if _, stopped, err := RunToCheckpoint(name, params, ckCfg, stopAt, path, twPre); err != nil {
					t.Fatalf("checkpoint run: %v", err)
				} else if !stopped {
					t.Fatalf("program finished before cycle %d; no checkpoint", stopAt)
				}

				img, err := LoadCheckpoint(path)
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				twPost := NewTraceWriter(cfg.Cores)
				sys, err := img.Restore(twPost)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if err := VerifyKernel(sys, name, params); err != nil {
					t.Fatalf("resumed run produced wrong results: %v", err)
				}
				if got := canonical(res); got != wantStats {
					t.Errorf("restored run's stats diverge from the uninterrupted run:\n--- uninterrupted\n%s--- restored\n%s",
						wantStats, got)
				}
				if gotPRV := renderPRV(t, twPost); !bytes.Equal(gotPRV, wantPRV) {
					t.Errorf("restored run's .prv diverges (%d vs %d bytes)", len(gotPRV), len(wantPRV))
				}
			})
		}
	}

	// A point stopped in the middle of an MSHR storm: requests refused by
	// full MSHR tables are on the uncore's waiting list when the machine is
	// serialized, some with examinations skipped and not yet counted. The
	// image must restore to the same bytes and resume to the same Result.
	t.Run("mid-storm", func(t *testing.T) {
		const name, stopAt = "copy-vector", 20000
		params := Params{N: 49152, Cores: 16, Seed: 1}
		cfg := DefaultConfig(16)
		want, err := RunKernel(name, params, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "storm.ckpt")
		if _, stopped, err := RunToCheckpoint(name, params, cfg, stopAt, path, nil); err != nil || !stopped {
			t.Fatalf("checkpoint run: stopped=%v err=%v", stopped, err)
		}
		img, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		sys, err := img.Restore(nil)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if sys.Uncore.Waiting() == 0 {
			t.Fatalf("test premise broken: no request waits on a full MSHR table at cycle %d", stopAt)
		}
		var again ckpt.Writer
		if err := sys.CheckpointState(&again); err != nil {
			t.Fatalf("re-checkpoint: %v", err)
		}
		if !bytes.Equal(again.Bytes(), img.State) {
			t.Errorf("restore → re-checkpoint is not byte-identical (%d vs %d bytes)", again.Len(), len(img.State))
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if err := VerifyKernel(sys, name, params); err != nil {
			t.Fatalf("resumed run produced wrong results: %v", err)
		}
		if got, want := canonical(res), canonical(want); got != want {
			t.Errorf("restored run diverges from the uninterrupted run:\n--- uninterrupted\n%s--- restored\n%s", want, got)
		}
	})
}

// TestFunctionalFastForwardExact proves the functional mode is
// architecturally exact: running a kernel entirely in fast-forward (no
// event calendar, caches warmed functionally) must still produce
// host-verified results on every kernel.
func TestFunctionalFastForwardExact(t *testing.T) {
	params := Params{N: 64, Cores: 4, Density: 0.05}
	for _, name := range Kernels() {
		t.Run(name, func(t *testing.T) {
			sys, err := PrepareKernel(name, params, DefaultConfig(4))
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			done, err := sys.RunFunctional(^uint64(0) / 2)
			if err != nil {
				t.Fatalf("functional run: %v", err)
			}
			if !done {
				t.Fatalf("functional run did not finish")
			}
			if err := VerifyKernel(sys, name, params); err != nil {
				t.Fatalf("functional execution produced wrong results: %v", err)
			}
		})
	}
}

// TestSampledVsFull validates the sampled-simulation error bound on a
// deterministic point: the extrapolated cycle estimate must land within
// 35% of the full detailed run (systematic sampling of a phase-regular
// kernel; the seeded placement makes the outcome exactly reproducible,
// so this bound is a regression fence, not a statistical hope).
func TestSampledVsFull(t *testing.T) {
	params := Params{N: 48, Cores: 4}
	cfg := DefaultConfig(4)
	full, err := RunKernel("matmul-scalar", params, cfg)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	sr, err := SampleKernel("matmul-scalar", params, cfg, SampleConfig{
		Period:  20000,
		Warmup:  2000,
		Measure: 5000,
		Seed:    42,
	})
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if len(sr.Intervals) < 2 {
		t.Fatalf("want ≥2 measured intervals, got %d", len(sr.Intervals))
	}
	ratio := float64(sr.EstimatedCycles) / float64(full.Cycles)
	if ratio < 0.65 || ratio > 1.35 {
		t.Errorf("sampled estimate %d vs full %d cycles (ratio %.3f) outside ±35%%",
			sr.EstimatedCycles, full.Cycles, ratio)
	}
	t.Logf("full=%d estimated=%d [%d, %d] ratio=%.3f detailed=%d/%d instrs",
		full.Cycles, sr.EstimatedCycles, sr.EstimatedCyclesLo, sr.EstimatedCyclesHi,
		ratio, sr.DetailedInstret, sr.TotalInstret)
}

// TestStopsMatchReferenceEngine stops an 8-core matmul-scalar at every
// cycle of a 300-cycle window, and at every instruction count of a window
// as wide, and requires the machine at each stop to be — byte for byte, as
// CheckpointState writes it — the one the reference engine has there. The
// block engine reaches each stop in one call, from a system of its own,
// so whatever it ran ahead of the clock was clamped by that stop alone;
// the reference engine ticks from stop to stop and runs nothing ahead.
func TestStopsMatchReferenceEngine(t *testing.T) {
	const name, window = "matmul-scalar", 300
	params := Params{N: 48, Cores: 8, Seed: 1}
	prepare := func(ref bool) *System {
		cfg := DefaultConfig(8)
		cfg.Hart.DisableBlockCache = ref
		sys, err := PrepareKernel(name, params, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	state := func(sys *System) []byte {
		var w ckpt.Writer
		if err := sys.CheckpointState(&w); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	full, err := prepare(false).Run()
	if err != nil {
		t.Fatal(err)
	}
	first := full.Cycles / 2

	t.Run("RunTo", func(t *testing.T) {
		ref := prepare(true)
		ahead := uint64(0)
		for n := first; n < first+window; n++ {
			if _, stopped, err := ref.RunTo(n); err != nil || !stopped {
				t.Fatalf("reference RunTo(%d): stopped=%v err=%v", n, stopped, err)
			}
			sys := prepare(false)
			res, stopped, err := sys.RunTo(n)
			if err != nil || !stopped {
				t.Fatalf("RunTo(%d): stopped=%v err=%v", n, stopped, err)
			}
			ahead += res.Host.LookaheadInstr
			if !bytes.Equal(state(sys), state(ref)) {
				t.Fatalf("stopped at cycle %d the machine differs from the reference engine's", n)
			}
		}
		if ahead == 0 {
			t.Error("test premise broken: nothing ran ahead of the clock")
		}
	})

	t.Run("RunUntilInstret", func(t *testing.T) {
		ref := prepare(true)
		if _, stopped, err := ref.RunTo(first); err != nil || !stopped {
			t.Fatal(stopped, err)
		}
		from := ref.TotalInstret()
		for target := from; target < from+window; target++ {
			if _, stopped, err := ref.RunUntilInstret(target); err != nil || !stopped {
				t.Fatalf("reference RunUntilInstret(%d): stopped=%v err=%v", target, stopped, err)
			}
			sys := prepare(false)
			if _, stopped, err := sys.RunUntilInstret(target); err != nil || !stopped {
				t.Fatalf("RunUntilInstret(%d): stopped=%v err=%v", target, stopped, err)
			}
			if sys.Cycle() != ref.Cycle() || !bytes.Equal(state(sys), state(ref)) {
				t.Fatalf("stopped at %d instructions: cycle %d, the reference engine stops at %d; machines equal: %v",
					target, sys.Cycle(), ref.Cycle(), bytes.Equal(state(sys), state(ref)))
			}
		}
	})
}

const checkpointGoldenPath = "testdata/checkpoint.golden"

// TestCheckpointLayoutGolden pins the SHA-256 of whole checkpoint files:
// six kernels stopped at half their run × interleave {1, 8}, with the
// trace prefix embedded, plus TestCheckpointGolden's mid-storm point with
// its non-empty waiting list. TestCheckpointGolden proves save and
// restore agree with each other; this proves the bytes are the ones
// checkpoint.SchemaVersion names, so it is the first test to fail when a
// serializer's layout changes without a version bump. The file was
// generated at the commit before the per-component archive methods
// replaced the Checkpoint/Restore pairs. Regenerate only together with a
// SchemaVersion bump:
//
//	COYOTE_UPDATE_GOLDEN=1 go test -run TestCheckpointLayoutGolden .
//
// The hashes are the default build's. A coyotesan build writes the same
// layout with other LRU stamps — it takes the full path on a repeat access
// to a set's most recent line (cache.Cache.Access), which ticks the LRU
// clock the default build's memo skips; the order of the stamps, all that
// victim choice reads, is the same.
func TestCheckpointLayoutGolden(t *testing.T) {
	if san.Enabled {
		t.Skip("the golden pins the default build's LRU stamps")
	}
	type point struct {
		name, kernel string
		params       Params
		cfg          Config
		stopAt       uint64 // 0: half the uninterrupted run
		traced       bool
	}
	var pts []point
	for _, k := range []string{"matmul-scalar", "spmv-scalar", "axpy-vector", "spmv-vector-gather", "histogram-atomic", "copy-vector"} {
		for _, il := range []int{1, 8} {
			cfg := DefaultConfig(4)
			cfg.InterleaveQuantum = il
			pts = append(pts, point{fmt.Sprintf("%s/il%d", k, il), k, Params{N: 64, Cores: 4, Density: 0.05}, cfg, 0, true})
		}
	}
	pts = append(pts, point{"mid-storm", "copy-vector", Params{N: 49152, Cores: 16, Seed: 1}, DefaultConfig(16), 20000, false})

	var lines []string
	for _, pt := range pts {
		stopAt := pt.stopAt
		if stopAt == 0 {
			full, err := RunKernel(pt.kernel, pt.params, pt.cfg)
			if err != nil {
				t.Fatalf("%s: %v", pt.name, err)
			}
			stopAt = full.Cycles / 2
		}
		var tw *TraceWriter
		if pt.traced {
			tw = NewTraceWriter(pt.cfg.Cores)
		}
		path := filepath.Join(t.TempDir(), "layout.ckpt")
		if _, stopped, err := RunToCheckpoint(pt.kernel, pt.params, pt.cfg, stopAt, path, tw); err != nil || !stopped {
			t.Fatalf("%s: checkpoint at cycle %d: stopped=%v err=%v", pt.name, stopAt, stopped, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%-32s %x", pt.name, sha256.Sum256(raw)))
	}
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("COYOTE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(checkpointGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", checkpointGoldenPath)
		return
	}
	want, err := os.ReadFile(checkpointGoldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with COYOTE_UPDATE_GOLDEN=1 go test -run TestCheckpointLayoutGolden .", err)
	}
	if got != string(want) {
		t.Errorf("checkpoint files changed for a fixed machine: a serializer's layout moved.\n"+
			"If intentional, bump checkpoint.SchemaVersion and regenerate with COYOTE_UPDATE_GOLDEN=1.\n\ngot:\n%s\nwant:\n%s", got, want)
	}
}
