package core

import (
	"testing"

	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/san"
)

// TestDispatchMissPathNoAllocs pins the tentpole property of the
// orchestrator hot path: once pools and maps have reached their working
// size, pushing an L1 miss through dispatch → uncore → fill → completion
// allocates nothing. Fetch misses are used because their completion
// carries no scoreboard state; the uncore path they take is the same one
// data misses take.
func TestDispatchMissPathNoAllocs(t *testing.T) {
	if san.Enabled {
		t.Skip("coyotesan build: sanitizer shadow maps may allocate; the zero-alloc contract is a default-build property")
	}
	cfg := DefaultConfig(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Harts[0]

	// Cycle through more distinct lines than the L2 holds so every event
	// stays a miss, but keep the set fixed so MSHR maps stop growing.
	const nLines = 32768 // 2 MiB of 64-B lines vs 512 KiB of L2
	next := 0
	drive := func() {
		for i := 0; i < 128; i++ {
			h.Events = append(h.Events, cpu.MemEvent{
				Hart: 0, Addr: uint64(next) << 6, Fetch: true,
			})
			next = (next + 1) % nLines
			s.dispatch(h)
		}
		s.Eng.Drain()
	}
	// Warm-up: the drives fault in every pool and map bucket chain the
	// steady state touches. A drive's 128 port deliveries land in one
	// calendar bucket, a different one of the ring's 1024 each drive; the
	// buckets pass one array around, so the first burst has grown it.
	for i := 0; i < 64; i++ {
		drive()
	}
	if allocs := testing.AllocsPerRun(20, drive); allocs != 0 {
		t.Errorf("miss dispatch path: %.1f allocs/run (128 misses/run), want 0", allocs)
	}
}
