package coyote

import (
	"path/filepath"
	"testing"

	"github.com/coyote-sim/coyote/internal/uncore"
)

// FuzzKernelSan drives randomized kernel/configuration combinations
// through the full simulator. In the default build it is a determinism
// and correctness fuzzer: every run must verify against the host
// reference and two identical runs must report identical cycle counts.
// Under `go test -tags coyotesan -fuzz FuzzKernelSan` it additionally
// turns every runtime invariant of internal/san into a fuzz oracle — a
// violated invariant panics and becomes a reproducible crasher.
//
// The committed seed corpus in testdata/fuzz/FuzzKernelSan covers each
// kernel family, the interesting uncore knobs (LLC, prefetch,
// page-to-bank mapping, tiny MSHR pools, DRAM row buffers) and the
// parallel orchestrator's worker-count dimension; `make fuzz` runs a
// short exploration on top of it.
//
// Every point additionally exercises the checkpoint dimension: the run
// is stopped at a fuzzer-derived cycle, serialized, restored into a
// fresh System and run to completion, and the reassembled statistics
// must match the uninterrupted run bit-for-bit (in both the default and
// -tags coyotesan builds, which also proves the shadow-state resync).
//
// workersSel picks the in-cycle worker pool size (1..4). Whenever the
// fuzzed config runs Workers > 1, the rerun below executes the identical
// point with Workers = 1, so the fuzzer doubles as a cross-worker
// determinism oracle: any divergence between the speculative parallel
// orchestrator and the sequential loop is a crasher.
func FuzzKernelSan(f *testing.F) {
	// kernel selector, core selector, problem-size selector, uncore knobs,
	// worker selector, data seed
	f.Add(byte(0), byte(0), byte(8), byte(0), byte(0), int64(1))     // smallest scalar run, default uncore
	f.Add(byte(1), byte(2), byte(12), byte(0x0b), byte(0), int64(2)) // 4 harts, LLC + prefetch + page-to-bank
	f.Add(byte(3), byte(1), byte(6), byte(0x30), byte(0), int64(3))  // tiny MSHR pool + row-buffer model
	f.Add(byte(5), byte(3), byte(10), byte(0x46), byte(0), int64(4)) // 8 harts, shared-L2 flip
	f.Add(byte(2), byte(2), byte(9), byte(0), byte(1), int64(5))     // 4 harts stepped by 2 workers
	f.Add(byte(6), byte(3), byte(11), byte(0x81), byte(3), int64(6)) // 8 harts, 4 workers, quantum=8 + LLC
	f.Fuzz(func(t *testing.T, kSel, coreSel, nSel, knobs, workersSel byte, seed int64) {
		names := Kernels()
		name := names[int(kSel)%len(names)]
		cores := 1 << (int(coreSel) % 4) // 1, 2, 4, 8

		cfg := DefaultConfig(cores)
		cfg.MaxCycles = 20_000_000 // a stuck run is a finding, not a timeout
		if knobs&0x01 != 0 {
			cfg.Uncore.LLCEnable = true
		}
		if knobs&0x02 != 0 {
			cfg.Uncore.PrefetchDepth = 2
		}
		if knobs&0x08 != 0 {
			cfg.Uncore.Mapping = uncore.PageToBank
		}
		if knobs&0x10 != 0 {
			cfg.Uncore.L2MSHRs = 2 // starve the MSHR pool: exercises the retry path
		}
		if knobs&0x20 != 0 {
			cfg.Uncore.MemRowBits = 12
		}
		if knobs&0x40 != 0 {
			cfg.Uncore.L2Shared = !cfg.Uncore.L2Shared
		}
		if knobs&0x80 != 0 {
			cfg.InterleaveQuantum = 8
		}
		cfg.Workers = 1 + int(workersSel)%4

		p := Params{
			// 8..39 keeps even scalar matmul (N³ inner products) cheap
			// while still spilling the L1s on the larger sizes.
			N:     8 + int(nSel)%32,
			Cores: cores,
			Seed:  1 + seed&0xffff, // Seed 0 means "default" to withDefaults
		}

		res, err := RunKernel(name, p, cfg)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, p, err)
		}
		// The rerun always uses the sequential orchestrator: for
		// Workers == 1 it is the classic same-config determinism check,
		// for Workers > 1 it pins the parallel path to the sequential
		// golden interleaving.
		seqCfg := cfg
		seqCfg.Workers = 1
		again, err := RunKernel(name, p, seqCfg)
		if err != nil {
			t.Fatalf("%s %+v rerun: %v", name, p, err)
		}
		if res.Cycles != again.Cycles {
			t.Fatalf("%s %+v is nondeterministic across workers=%d/1: %d cycles then %d",
				name, p, cfg.Workers, res.Cycles, again.Cycles)
		}

		// Checkpoint dimension: stop the same point at a fuzzer-derived
		// mid-run cycle, serialize, restore into a fresh System and run to
		// completion. The reassembled run must report bit-identical
		// simulated-time statistics — any state the serializers miss (or
		// resynchronize wrongly, including the coyotesan shadow state)
		// shows up as a diff or a sanitizer panic.
		if res.Cycles > 1 {
			ckAt := 1 + uint64(seed&0x7fffffff)%(res.Cycles-1)
			path := filepath.Join(t.TempDir(), "fuzz.ckpt")
			if _, stopped, err := RunToCheckpoint(name, p, cfg, ckAt, path, nil); err != nil {
				t.Fatalf("%s %+v checkpoint at %d: %v", name, p, ckAt, err)
			} else if stopped {
				img, err := LoadCheckpoint(path)
				if err != nil {
					t.Fatalf("%s %+v load: %v", name, p, err)
				}
				sys, err := img.Restore(nil)
				if err != nil {
					t.Fatalf("%s %+v restore at %d: %v", name, p, ckAt, err)
				}
				rres, err := sys.Run()
				if err != nil {
					t.Fatalf("%s %+v resumed run: %v", name, p, err)
				}
				if err := VerifyKernel(sys, name, p); err != nil {
					t.Fatalf("%s %+v resumed run wrong results: %v", name, p, err)
				}
				if canonical(rres) != canonical(res) {
					t.Fatalf("%s %+v restored at cycle %d diverges from the uninterrupted run:\n--- uninterrupted\n%s--- restored\n%s",
						name, p, ckAt, canonical(res), canonical(rres))
				}
			}
		}
	})
}
