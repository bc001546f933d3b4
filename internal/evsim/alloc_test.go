package evsim

import (
	"testing"

	"github.com/coyote-sim/coyote/internal/san"
)

// skipUnderSan skips zero-alloc pins in the coyotesan build: the
// sanitizer's shadow state is allowed to allocate.
func skipUnderSan(t *testing.T) {
	t.Helper()
	if san.Enabled {
		t.Skip("coyotesan build: the zero-alloc contract is a default-build property")
	}
}

// The engine's contract for the simulator hot path: once the bucket
// arrays, overflow heap and port FIFOs have grown to their working-set
// size, scheduling and draining events allocates nothing. Buckets pass
// their arrays around (Engine.free), so a few runs reach that size
// wherever in the ring the clock stands.

func warmRing(run func()) {
	for i := 0; i < 4; i++ {
		run()
	}
}

func TestScheduleNearHorizonNoAllocs(t *testing.T) {
	skipUnderSan(t)
	e := NewEngine()
	fn := func(uint64) {}
	warm := func() {
		for i := 0; i < 256; i++ {
			e.ScheduleArg(Cycle(i%500), fn, 0)
		}
		e.Drain()
	}
	warmRing(warm)
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Errorf("near-horizon schedule+drain: %.1f allocs/run, want 0", allocs)
	}
}

func TestScheduleFarHorizonNoAllocs(t *testing.T) {
	skipUnderSan(t)
	e := NewEngine()
	fn := func(uint64) {}
	warm := func() {
		for i := 0; i < 256; i++ {
			// Far beyond the bucket window: exercises the overflow heap
			// and the window slide that migrates events back into buckets.
			e.ScheduleArg(Cycle(2000+i*37), fn, 0)
		}
		e.Drain()
	}
	warmRing(warm)
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Errorf("far-horizon schedule+drain: %.1f allocs/run, want 0", allocs)
	}
}

func TestPortSendNoAllocs(t *testing.T) {
	skipUnderSan(t)
	e := NewEngine()
	n := 0
	p := NewPort(e, 3, func(v int) { n += v })
	warm := func() {
		for i := 0; i < 64; i++ {
			p.Send(i)
		}
		e.Drain()
	}
	warmRing(warm)
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Errorf("port send+drain: %.1f allocs/run, want 0", allocs)
	}
}
