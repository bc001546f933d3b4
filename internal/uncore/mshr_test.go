package uncore

import (
	"math/rand"
	"testing"
)

// TestMSHRTableMatchesMap drives the open-addressed MSHR table and a Go map
// with the same random inserts and releases — lines drawn from a pool four
// times the table's size, so homes collide and probe runs wrap the end of
// the table — and requires the same answers after every step: which lines
// are in flight, with which entries, and how many. Capacities 1 to 16
// cover every table size from 2 to 32 slots.
func TestMSHRTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 16; capacity++ {
		tab := newMSHRTable(capacity)
		if len(tab.key) < 2*capacity || len(tab.key)&(len(tab.key)-1) != 0 {
			t.Fatalf("capacity %d: %d slots, want a power of two ≥ %d", capacity, len(tab.key), 2*capacity)
		}
		ref := map[uint64]mshrState{}
		pool := make([]uint64, 4*len(tab.key))
		for i := range pool {
			pool[i] = uint64(i) << 6 * 32 // one bank's lines under 32-way set interleave
		}
		for step := 0; step < 20000; step++ {
			addr := pool[rng.Intn(len(pool))]
			if _, in := ref[addr]; in {
				if e := tab.release(addr); e.state != ref[addr] || len(e.waiters) != 1 || e.waiters[0].Arg != addr {
					t.Fatalf("capacity %d step %d: released %#x as %+v, want state %d", capacity, step, addr, e, ref[addr])
				}
				delete(ref, addr)
			} else if len(ref) < capacity {
				st := mshrState(rng.Intn(2))
				tab.insert(addr, mshrEntry{state: st, waiters: []Done{{Arg: addr}}})
				ref[addr] = st
			} else if e := tab.release(addr); e.waiters != nil {
				t.Fatalf("capacity %d step %d: released %#x, which was not in flight", capacity, step, addr)
			}
			if tab.n != len(ref) {
				t.Fatalf("capacity %d step %d: %d in flight, want %d", capacity, step, tab.n, len(ref))
			}
			for _, a := range pool {
				st, in := ref[a]
				if i := tab.find(a); (i >= 0) != in || (in && (tab.ent[i].state != st || tab.ent[i].waiters[0].Arg != a)) {
					t.Fatalf("capacity %d step %d: find(%#x) = %d, in flight %v", capacity, step, a, i, in)
				}
			}
		}
	}
}
