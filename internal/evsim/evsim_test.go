package evsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndAdvance(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(5, func() { order = append(order, 0) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.AdvanceTo(15)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 15 {
		t.Errorf("Now() = %d, want 15", e.Now())
	}
	e.AdvanceTo(25)
	if len(order) != 3 {
		t.Fatalf("late event not run: %v", order)
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(3, func() { order = append(order, i) })
	}
	e.AdvanceTo(3)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events out of order: %v", order)
		}
	}
}

func TestCascadedEventsWithinWindow(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(1, func() {
		hits++
		e.Schedule(1, func() { hits++ }) // lands at cycle 2, inside window
	})
	e.AdvanceTo(5)
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

func TestZeroDelayEventRunsInSweep(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(2, func() { e.Schedule(0, func() { ran = true }) })
	e.AdvanceTo(2)
	if !ran {
		t.Error("zero-delay cascade did not run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestAdvancePastPanics(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Error("advancing backwards should panic")
		}
	}()
	e.AdvanceTo(5)
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventTime(); ok {
		t.Error("empty engine should have no next event")
	}
	e.Schedule(7, func() {})
	if when, ok := e.NextEventTime(); !ok || when != 7 {
		t.Errorf("NextEventTime = %d,%v", when, ok)
	}
}

func TestDrain(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(100, func() { n++ })
	e.Schedule(50, func() { n++ })
	final := e.Drain()
	if n != 2 || final != 100 {
		t.Errorf("drain: n=%d final=%d", n, final)
	}
	if e.Executed() != 2 {
		t.Errorf("Executed() = %d", e.Executed())
	}
}

// Property: events always fire in nondecreasing time order regardless of
// schedule order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		for _, d := range delays {
			d := Cycle(d)
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Drain()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) &&
			len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved AdvanceTo windows process exactly the events due.
func TestWindowedAdvanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewEngine()
	fired := make(map[Cycle]int)
	total := 0
	for i := 0; i < 500; i++ {
		d := Cycle(rng.Intn(1000))
		when := e.Now() + d
		e.ScheduleAt(when, func() { fired[when]++ })
		total++
		if i%10 == 9 {
			e.AdvanceTo(e.Now() + Cycle(rng.Intn(100)))
			for when := range fired {
				if when > e.Now() {
					t.Fatalf("event at %d fired before window %d", when, e.Now())
				}
			}
		}
	}
	e.Drain()
	n := 0
	for _, c := range fired {
		n += c
	}
	if n != total {
		t.Errorf("fired %d events, scheduled %d", n, total)
	}
}

func TestPortDeliversAfterLatency(t *testing.T) {
	e := NewEngine()
	var got []string
	p := NewPort[string](e, 4, func(s string) { got = append(got, s) })
	p.Send("a")
	e.AdvanceTo(3)
	if len(got) != 0 {
		t.Error("delivered too early")
	}
	e.AdvanceTo(4)
	if len(got) != 1 || got[0] != "a" {
		t.Errorf("got %v", got)
	}
	if p.Latency() != 4 || p.Sent() != 1 {
		t.Errorf("port metadata wrong: lat=%d sent=%d", p.Latency(), p.Sent())
	}
}

func TestPortSendAfter(t *testing.T) {
	e := NewEngine()
	var at Cycle
	p := NewPort[int](e, 2, func(int) { at = e.Now() })
	p.SendAfter(3, 1)
	e.Drain()
	if at != 5 {
		t.Errorf("delivered at %d, want 5", at)
	}
}

func TestNilSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil sink should panic")
		}
	}()
	NewPort[int](NewEngine(), 1, nil)
}

type fakeUnit struct{ name string }

func (f fakeUnit) Name() string                { return f.name }
func (f fakeUnit) Counters() map[string]uint64 { return map[string]uint64{"x": 1} }

func TestRegistrySnapshot(t *testing.T) {
	var r Registry
	r.Register(fakeUnit{"a"})
	r.Register(fakeUnit{"b"})
	snap := r.Snapshot()
	if snap["a.x"] != 1 || snap["b.x"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	keys := SortedKeys(snap)
	if len(keys) != 2 || keys[0] != "a.x" {
		t.Errorf("keys = %v", keys)
	}
	if len(r.Units()) != 2 {
		t.Errorf("Units() = %v", r.Units())
	}
}

// CatchingUp is true exactly for events of the cycle the clock stood at
// when the sweep began: scheduled with zero delay from outside the engine,
// after that cycle's own events had run.
func TestCatchingUp(t *testing.T) {
	e := NewEngine()
	var got []bool
	note := func() { got = append(got, e.CatchingUp()) }
	e.Schedule(3, note) // a regular event of cycle 3
	e.AdvanceTo(3)
	e.Schedule(0, note) // cycle 3 again, from outside, after its sweep
	e.Schedule(1, note) // cycle 4
	e.AdvanceTo(5)
	e.Schedule(0, note) // same again through Drain
	e.Schedule(2, note)
	e.Drain()
	want := []bool{false, true, false, true, false}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: CatchingUp() = %v, want %v", i, got[i], want[i])
		}
	}
	if e.CatchingUp() {
		t.Error("CatchingUp() outside a sweep")
	}
}
