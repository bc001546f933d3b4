package evsim

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestRecycledBucketsKeepOrder: events run sorted by (when, seq) whichever
// array their bucket happened to be handed — same-cycle FIFO, delay-0
// cascades into the bucket that is running, and overflow-lane events
// migrating into buckets that direct arrivals then share. A random
// schedule, whose handlers schedule more, is diffed against its own sort.
// (slideTo's insert-by-seq branch stays uncovered: an event leaves the
// overflow lane the moment its cycle enters the window, ahead of any
// direct arrival, so no schedule reaches it; and it runs only on a bucket
// that already has its array.)
func TestRecycledBucketsKeepOrder(t *testing.T) {
	type stamp struct{ when, seq uint64 }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ran []stamp
		scheduled := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			var delay Cycle
			switch rng.Intn(5) {
			case 0: // delay 0: joins the running bucket, or runs at the next catch-up
			case 1:
				delay = Cycle(rng.Intn(4)) // same few cycles as its siblings: FIFO ties
			case 2:
				delay = Cycle(rng.Intn(bucketWindow))
			case 3:
				delay = bucketWindow - 2 + Cycle(rng.Intn(4)) // either side of the horizon
			case 4:
				delay = bucketWindow + Cycle(rng.Intn(3*bucketWindow)) // overflow lane
			}
			scheduled++
			me := stamp{e.now + delay, e.seq + 1}
			e.Schedule(delay, func() {
				if e.Now() != me.when {
					t.Fatalf("seed %d: event for cycle %d ran at %d", seed, me.when, e.Now())
				}
				ran = append(ran, me)
				for n := rng.Intn(3); depth < 6 && n > 0; n-- {
					schedule(depth + 1)
				}
			})
		}
		for step := 0; step < 300; step++ {
			for n := rng.Intn(8); n > 0; n-- {
				schedule(0)
			}
			e.AdvanceTo(e.Now() + Cycle(rng.Intn(200)))
		}
		e.Drain()
		if len(ran) != scheduled {
			t.Fatalf("seed %d: %d of %d events ran", seed, len(ran), scheduled)
		}
		if !sort.SliceIsSorted(ran, func(i, j int) bool {
			return ran[i].when < ran[j].when || ran[i].when == ran[j].when && ran[i].seq < ran[j].seq
		}) {
			t.Errorf("seed %d: execution order is not (when, seq) order", seed)
		}
		if e.nfree == 0 || e.nfree >= bucketWindow/2 {
			t.Errorf("seed %d: %d arrays on the free list: the schedule did not recycle", seed, e.nfree)
		}
	}
}

// ringStorage counts the arrays the ring holds, in buckets and on the free
// list, and their bytes.
func ringStorage(e *Engine) (arrays int, bytes uintptr) {
	add := func(b []event) {
		if cap(b) > 0 {
			arrays++
			bytes += uintptr(cap(b)) * unsafe.Sizeof(event{})
		}
	}
	for i := range e.bucket {
		add(e.bucket[i])
	}
	for _, b := range e.free[:e.nfree] {
		add(b)
	}
	return arrays, bytes
}

// TestRingStorageIsLiveEvents drives the traffic of a 128-core cycle — a
// burst per cycle, spread over the uncore's few hop latencies — for ten
// times the window. A private array per slot would end up with one per
// slot, each grown to a burst. Recycled, the ring holds no more arrays
// than buckets were ever live at once, none larger than append grows one
// to hold the fullest bucket twice over.
func TestRingStorageIsLiveEvents(t *testing.T) {
	e := NewEngine()
	nop := func(uint64) {}
	hops := []Cycle{1, 4, 12, 30, 120} // NoC, L2 hit, L2 miss, LLC, DRAM
	peakLive, peakLen := 0, 0
	for c := Cycle(0); c < 10*bucketWindow; c++ {
		for hart := 0; hart < 128; hart++ {
			e.ScheduleArg(hops[(int(c)+hart)%len(hops)], nop, 0)
		}
		live := 0
		for _, w := range e.occ {
			live += bits.OnesCount64(w)
		}
		if live > peakLive {
			peakLive = live
		}
		for _, h := range hops {
			if n := len(e.bucket[int(c+h)&bucketMask]); n > peakLen {
				peakLen = n
			}
		}
		e.AdvanceTo(c + 1)
	}
	if peakLive >= bucketWindow/4 {
		t.Fatalf("%d buckets live at once: the pattern was meant to leave most of the window empty", peakLive)
	}
	var grown []event
	for len(grown) < 2*peakLen {
		grown = append(grown, event{})
	}
	arrays, bytes := ringStorage(e)
	bound := uintptr(peakLive*cap(grown)) * unsafe.Sizeof(event{})
	t.Logf("%d arrays, %d bytes; at most %d buckets live, at most %d events in one; bound %d bytes; one array of that size per slot: %d bytes",
		arrays, bytes, peakLive, peakLen, bound, bucketWindow*uintptr(peakLen)*unsafe.Sizeof(event{}))
	if arrays > peakLive {
		t.Errorf("ring holds %d arrays, but at most %d buckets were live at once", arrays, peakLive)
	}
	if bytes > bound {
		t.Errorf("ring holds %d bytes, more than %d arrays of %d events (%d bytes)", bytes, peakLive, cap(grown), bound)
	}
}
