package uncore

import (
	"github.com/coyote-sim/coyote/internal/evsim"
	"github.com/coyote-sim/coyote/internal/san"
)

// MSHR back-pressure. A request that misses into a full MSHR table is
// refused and must be examined again (L2Bank.handle: merge, hit, allocate
// or refuse) every cycle until it fits. The reference semantics are
// per-cycle polling — every waiting request re-enters its bank through a
// retry event of its own, scheduled one cycle ahead by the examination
// that refused it — and testdata/backpressure.golden pins their results.
// This file runs only the examinations that can change simulated state,
// in the order those events would run them (DESIGN.md §6):
//
//   - One list for all banks, in examination order, and one tick event per
//     cycle while it is non-empty. A request refused on arrival ahead of
//     its cycle's tick goes to the head of the list, behind the others
//     that arrived in that cycle; one refused after the tick goes to the
//     tail. That is polling's order: newest cycle of first refusal first,
//     arrival order within a cycle.
//   - A request refused while the engine is catching up (a zero-latency
//     hop: it was sent after its cycle's sweep) is the exception. Its
//     retry event would queue behind the next cycle's one-latency
//     arrivals, not ahead of them with the tick, so it gets that one
//     examination from an event of its own (lateTick) and joins the tail
//     afterwards.
//   - A refused examination of a bank that has not changed since the
//     request's last one (L2Bank.gen) is a no-op on simulated state: the
//     line is still absent and not in flight, the table still full, and
//     the way the last examination allocated and handed back is still
//     free, so nothing is evicted. It is skipped, and the tick does no
//     per-request work at all in a cycle in which no bank changed.
//   - Every skipped examination is still counted. It would bump reads or
//     writes, the tag store's Misses and mshr_conflicts by one, so the
//     next real examination (or settle, for a reader in between) adds the
//     number of cycles skipped in closed form.

// waiter is one refused request on the waiting list.
type waiter struct {
	bank *L2Bank
	req  Request
	last evsim.Cycle // latest cycle whose examination ran or was counted
	gen  uint64      // bank.gen when that examination ran
}

// backpressure is the waiting-list state embedded in Uncore.
type backpressure struct {
	waiting []waiter // examination order
	tickFn  func(uint64)
	tickH   evsim.Handle

	// late holds the requests refused during this cycle's catch-up until
	// lateTick examines them next cycle.
	late   []waiter
	lateFn func(uint64)
	lateH  evsim.Handle

	// ticking: a tick event is in the calendar for tickedAt+1. tickedAt is
	// the cycle of the latest tick, or of the park that started the ticks
	// (nothing else could have waited in that cycle, so it stands for one).
	ticking  bool
	tickedAt evsim.Cycle

	// stale: some bank changed since the last scan (L2Bank.changed), or a
	// scan left a request it could not examine yet behind a changed bank.
	stale bool
}

// park takes a request its bank just refused.
//
//coyote:allocfree
func (u *Uncore) park(b *L2Bank, req Request) {
	now := u.eng.Now()
	w := waiter{bank: b, req: req, last: now, gen: b.gen}
	if !u.eng.CatchingUp() {
		u.enlist(w, now)
		return
	}
	if len(u.late) == 0 {
		u.eng.ScheduleArgH(1, u.lateFn, 0, u.lateH)
	}
	u.late = append(u.late, w)
}

// enlist puts w on the waiting list and makes sure the list is ticking.
//
//coyote:allocfree
func (u *Uncore) enlist(w waiter, now evsim.Cycle) {
	if !u.ticking {
		u.ticking = true
		u.tickedAt = now
		u.eng.ScheduleArgH(1, u.tickFn, 0, u.tickH)
	}
	u.waiting = append(u.waiting, w)
	if u.tickedAt == now {
		return // refused after this cycle's tick: examined last from now on
	}
	// Ahead of the tick: to the head, behind the others parked there this
	// cycle — the only ones on the list already examined in it.
	front := 0
	for front < len(u.waiting)-1 && u.waiting[front].last == now {
		front++
	}
	copy(u.waiting[front+1:], u.waiting[front:])
	u.waiting[front] = w
}

// lateTick gives the requests parked during the previous cycle's catch-up
// their first re-examination, then moves the ones still refused to the
// tail of the waiting list.
//
//coyote:allocfree
func (u *Uncore) lateTick(uint64) {
	now := u.eng.Now()
	for i := range u.late {
		w := u.late[i]
		u.late[i] = waiter{}
		if !w.examine(now) {
			u.enlist(w, now)
		}
	}
	u.late = u.late[:0]
}

// tick is the one back-pressure event of a cycle: O(1) unless a bank
// changed since the last scan.
//
//coyote:allocfree
func (u *Uncore) tick(uint64) {
	now := u.eng.Now()
	u.tickedAt = now
	if u.stale || san.Enabled {
		u.stale = false
		u.scan(now)
	}
	if len(u.waiting) == 0 {
		u.ticking = false
		return
	}
	u.eng.ScheduleArgH(1, u.tickFn, 0, u.tickH)
}

// scan examines the waiting list in order and drops the requests their
// bank accepted.
//
//coyote:allocfree
func (u *Uncore) scan(now evsim.Cycle) {
	keep := 0
	for i := range u.waiting {
		w := &u.waiting[i]
		if w.last == now {
			// Parked ahead of this tick, so already examined this cycle. If
			// the bank moved since, the next tick must look at it.
			if w.gen != w.bank.gen {
				u.stale = true
			}
		} else if w.examine(now) {
			continue
		}
		if keep != i {
			u.waiting[keep] = *w
		}
		keep++
	}
	for i := keep; i < len(u.waiting); i++ {
		u.waiting[i] = waiter{}
	}
	u.waiting = u.waiting[:keep]
}

// examine presents w to its bank again if the bank changed since w's last
// examination, and reports whether the bank accepted it. An unchanged bank
// would refuse it with no effect, so that examination is left to be
// counted later — except under coyotesan, which runs it and checks the
// claim.
//
//coyote:allocfree
func (w *waiter) examine(now evsim.Cycle) bool {
	b := w.bank
	skippable := w.gen == b.gen
	if skippable && !san.Enabled {
		return false
	}
	b.countRefused(w.req.Write, now-1-w.last)
	if skippable {
		b.examineSkippable(w.req, now)
	} else if b.handle(w.req) {
		return true
	}
	w.last, w.gen = now, b.gen
	return false
}

// countRefused accounts n examinations that were skipped because each
// would have been refused: one lookup, one tag miss, one conflict apiece.
//
//coyote:allocfree
func (b *L2Bank) countRefused(write bool, n uint64) {
	if write {
		b.writes += n
	} else {
		b.reads += n
	}
	b.tags.Stats.Misses += n
	b.mshrConflicts += n
}

// examineSkippable is the coyotesan form of a skip: run the examination
// the default build leaves out and check the claim that justifies leaving
// it out — the bank refuses it, and neither its MSHR set nor its tag
// residency moves (a refusal that evicted nothing).
func (b *L2Bank) examineSkippable(req Request, now evsim.Cycle) {
	inflight, evictions := b.mshr.n, b.tags.Stats.Evictions
	accepted := b.handle(req)
	san.Check(!accepted && b.mshr.n == inflight && b.tags.Stats.Evictions == evictions,
		now, "l2bank.waiting",
		"waiting request skipped as unchanged would have changed the bank (a change that did not bump L2Bank.gen)",
		req.Addr, b.gen)
}

// settle brings the counters up to date with every examination skipped so
// far, so a reader between ticks sees what per-cycle polling would have
// counted by now.
func (u *Uncore) settle() {
	if len(u.waiting) == 0 {
		return
	}
	through := u.eng.Now()
	if u.tickedAt != through {
		through-- // this cycle's tick has not run yet
	}
	for i := range u.waiting {
		if w := &u.waiting[i]; w.last < through {
			w.bank.countRefused(w.req.Write, through-w.last)
			w.last = through
		}
	}
}
