//go:build coyotesan

package uncore

import (
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/evsim"
	"github.com/coyote-sim/coyote/internal/san"
)

// These workloads drive the real MSHR machinery with the sanitizer's
// shadow structures live. On the unmutated tree they must be violation
// free; their kill power is enforced by the coyotemut pinned corpus
// (internal/mut/testdata/pinned/san_layer.json), which seeds the classic
// shadow-maintenance faults — a dropped release, a dropped insert, an
// inverted invariant check — and asserts that exactly these tests, under
// -tags coyotesan, catch each one when every default-build oracle cannot.

// A clean run through the demand-miss machinery raises no violation and
// leaves every shadow table drained.
func TestSanCleanMissPath(t *testing.T) {
	u, err := New(DefaultConfig(1), evsim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 64; i++ {
		u.Submit(Request{Addr: uint64(i) << 6, Done: FuncDone(func() { fired++ })})
		u.eng.Drain()
	}
	if fired != 64 {
		t.Fatalf("completions fired %d times, want 64", fired)
	}
	u.Audit()
}

// TestSanPrefetchPath drives the next-line prefetcher under the
// sanitizer: prefetch inserts, prefetch fills (which must arrive with no
// merged waiters) and the end-of-run audit all exercise the shadow MSHR's
// speculative arm. The default config leaves PrefetchDepth at 0, so
// without this workload the prefetch-side san calls would never execute
// under test — and the san-layer pinned mutants would survive.
func TestSanPrefetchPath(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PrefetchDepth = 2
	u, err := New(cfg, evsim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 64; i++ {
		u.Submit(Request{Addr: uint64(i) << 6, Done: FuncDone(func() { fired++ })})
		u.eng.Drain()
	}
	if fired != 64 {
		t.Fatalf("completions fired %d times, want 64", fired)
	}
	u.Audit()
}

// stormUncore is one bank with a four-entry MSHR table and the next-line
// prefetcher on, loaded with six distinct-line misses: the first brings a
// prefetch along, the next two fill the table, the last three are refused
// and wait.
func stormUncore(t *testing.T) (*Uncore, *int) {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.BanksPerTile, cfg.MemCtrls = 1, 1
	cfg.L2MSHRs, cfg.PrefetchDepth = 4, 2
	u, err := New(cfg, evsim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	fired := new(int)
	for i := uint64(0); i < 6; i++ {
		u.Submit(Request{Addr: i * 10 << 6, Done: FuncDone(func() { *fired++ })})
	}
	return u, fired
}

// Under the sanitizer the waiting list skips nothing: every waiting
// request is examined every cycle, and each examination the default build
// would have skipped is checked to be the no-op the skip relies on. A
// clean storm raises no violation, completes, and leaves the list empty.
func TestSanWaitingListClean(t *testing.T) {
	u, fired := stormUncore(t)
	u.eng.AdvanceTo(u.cfg.LocalLatency)
	if u.Waiting() != 3 || u.banks[0].prefetches != 1 {
		t.Fatalf("test premise broken: %d waiting, %d prefetches", u.Waiting(), u.banks[0].prefetches)
	}
	u.eng.Drain()
	if *fired != 6 {
		t.Fatalf("completions fired %d times, want 6", *fired)
	}
	u.Audit()
}

// Mutation: a fill that forgets to bump its bank's generation. The
// request that should take the freed MSHR entry still looks unchanged, the
// default build would skip it, and the sanitizer — which runs the skipped
// examination — sees the bank accept it.
func TestSanCatchesForgottenGenerationBump(t *testing.T) {
	u, _ := stormUncore(t)
	b := u.banks[0]
	fill := b.fillFn
	b.fillFn = func(arg uint64) {
		gen := b.gen
		fill(arg)
		b.gen = gen
	}
	defer func() {
		v, ok := recover().(san.Violation)
		if !ok {
			t.Fatalf("want san.Violation panic, got %v", v)
		}
		if !strings.Contains(v.Error(), "did not bump L2Bank.gen") {
			t.Fatalf("violation %q missing %q", v.Error(), "did not bump L2Bank.gen")
		}
	}()
	u.eng.Drain()
}
