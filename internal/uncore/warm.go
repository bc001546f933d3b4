package uncore

// Functional warming: the memory side of core.RunFunctional. A
// fast-forwarded region executes ISA semantics only, but still walks each
// core-side request through the cache hierarchy so tag/dirty/LRU state
// stays warm — a subsequent detailed measurement window then starts from
// realistic cache contents instead of a cold hierarchy (the standard
// functional-warming discipline of sampled simulation).
//
// The walk mirrors the timed path's STATE effects exactly while skipping
// every timing mechanism: no ports, no MSHRs, no NoC hops, no scheduled
// events. Memory-controller row-buffer state is timing-only and left
// untouched. Statistics accrue on the units just as in the timed path;
// sampling drivers call ResetStats at the measurement boundary, so the
// warming traffic never leaks into measured counters.

// WarmAccess functionally applies one core-side request: the home L2
// bank's tags are accessed (allocate-on-miss, dirty on write), and on an
// L2 miss — or an L2 dirty eviction — the LLC slice is touched the same
// way the timed miss path would touch it.
func (u *Uncore) WarmAccess(tile int, addr uint64, write bool) {
	b := u.bankFor(tile, addr)
	if write {
		b.writes++
	} else {
		b.reads++
	}
	res := b.tags.WarmAccess(addr, write)
	b.changed() // a request left waiting by the timed window must look again
	if res.HasWriteback {
		u.warmMemSide(res.Writeback, true)
	}
	if !res.Hit {
		// The timed path fetches the missing line from the memory side as
		// a read, warming the LLC slice on the way.
		u.warmMemSide(addr, false)
	}
}

// WarmGather functionally applies an MCPU scatter/gather descriptor,
// which bypasses the L2 banks and goes straight to the memory side.
func (u *Uncore) WarmGather(lines []uint64, write bool) {
	for _, a := range lines {
		u.warmMemSide(a, write)
	}
}

// warmMemSide is the functional twin of memSide: touch the LLC slice's
// tags when the LLC exists; plain memory has no warmable state.
func (u *Uncore) warmMemSide(addr uint64, write bool) {
	if u.llcs == nil {
		return
	}
	l := u.llcs[(addr>>u.lineShift)%uint64(len(u.mcs))]
	if write {
		l.writes++
	} else {
		l.reads++
	}
	// Evicted dirty LLC lines would flow to the controller, which holds no
	// contents — the result is dropped deliberately.
	l.tags.WarmAccess(addr, write)
}
