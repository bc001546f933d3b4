package uncore

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/evsim"
)

// archive is the uncore's layout in a checkpoint, its complete in-flight
// state: every bank's tag array, MSHR table and inbound port queues, the
// LLC slices, the memory controllers' channel watermarks and open rows,
// the MCPU descriptor table, all statistics, and at the end the requests
// waiting on a full MSHR table. The matching calendar events are
// serialized by the engine; the two halves reference each other only
// through registry handles and MCPU slot ids, both of which are
// deterministic functions of the Config.
func (u *Uncore) archive(a *ckpt.Archive) {
	for _, b := range u.banks {
		a.In(b.archive, "uncore: bank %d", b.id)
	}
	for _, l := range u.llcs {
		a.In(l.archive, "uncore: llc %d", l.id)
	}
	for _, mc := range u.mcs {
		a.In(mc.archive, "uncore: mc %d", mc.id)
	}
	a.In(u.mcpu.archive, "uncore: mcpu")
	a.U64(&u.noc.localMsgs)
	a.U64(&u.noc.remoteMsgs)
	// The waiting list, then the requests parked while the engine was
	// catching up (only a checkpoint of cycle 1 can find any: later ones
	// are examined within the sweep that parked them). The tick events are
	// the engine's to restore.
	a.In(func(a *ckpt.Archive) {
		ckpt.Slice(a, &u.waiting, waiterBytes, u.archiveWaiter)
		ckpt.Slice(a, &u.late, waiterBytes, u.archiveWaiter)
	}, "uncore: waiting list")
}

// Checkpoint writes the uncore to w, between two cycles.
func (u *Uncore) Checkpoint(w *ckpt.Writer) error {
	u.settle()
	if u.ticking && u.tickedAt != u.eng.Now() {
		return fmt.Errorf("uncore: checkpoint inside cycle %d: its back-pressure tick is still pending", u.eng.Now())
	}
	return ckpt.Saving(w).Do(u.archive)
}

// Restore reloads the state written by Checkpoint into a freshly
// constructed uncore with the same Config, resynchronizing the coyotesan
// shadow structures (MSHR in-flight sets, tag directories) as it goes.
func (u *Uncore) Restore(r *ckpt.Reader) error {
	err := ckpt.Loading(r).Do(u.archive)
	u.ticking = len(u.waiting) > 0
	u.tickedAt = u.eng.Now()
	u.stale = true // one scan re-derives it from the per-request flags
	return err
}

// Least encoded sizes. A completion is handle(4) + arg(8); a Request is
// tile(8) + addr(8) + write(1) + completion; a waiting-list entry adds
// bank(8) + last(8) + current(1). An MSHR entry is addr(8) + a waiter
// count(8), plus state(1) in a bank; an LLC waiter is a completion +
// extra(8). An MCPU slot is active(1) + write(1) + remaining(8) +
// completion + line count(8) before its lines.
const (
	doneBytes    = 12
	requestBytes = 17 + doneBytes
	waiterBytes  = requestBytes + 17
	minTxnBytes  = 18 + doneBytes
)

// archiveDone archives a completion token as (handle, arg). A completion
// built from an unregistered closure (FuncDone in tests) cannot be named
// in a checkpoint; a loaded handle must name a registered callback.
func (u *Uncore) archiveDone(a *ckpt.Archive, d *Done) {
	if d.F != nil && d.H == 0 {
		a.Failf("in-flight completion has no registry handle (test-only FuncDone?)")
	}
	a.U32((*uint32)(&d.H))
	a.U64(&d.Arg)
	if int(d.H) > u.eng.Registered() {
		a.Failf("checkpoint completion handle %d out of range", d.H)
	} else if a.Loading() {
		d.F = u.eng.Fn(d.H)
	}
}

func (u *Uncore) archiveRequest(a *ckpt.Archive, req *Request) {
	a.Int(&req.Tile)
	a.U64(&req.Addr)
	a.Bool(&req.Write)
	u.archiveDone(a, &req.Done)
}

func (u *Uncore) archivePort(a *ckpt.Archive, p *evsim.Port[Request], name string) {
	a.In(func(a *ckpt.Archive) {
		reqs, sent := p.Pending(), p.Sent()
		ckpt.Slice(a, &reqs, requestBytes, u.archiveRequest)
		if a.U64(&sent); a.Loading() {
			p.RestorePending(reqs, sent)
		}
	}, name)
}

// archiveWaiter archives one waiting request: bank, request, the cycle its
// counters are settled through, and whether the bank is unchanged since
// its last examination. The generation numbers themselves are not state —
// only "current or not" decides what the next tick does — so a restored
// list starts them afresh.
func (u *Uncore) archiveWaiter(a *ckpt.Archive, wt *waiter) {
	var id int
	var current bool
	if !a.Loading() {
		id, current = wt.bank.id, wt.gen == wt.bank.gen
	}
	a.Int(&id)
	u.archiveRequest(a, &wt.req)
	a.U64(&wt.last)
	a.Bool(&current)
	switch {
	case !a.Loading() || a.Err() != nil:
	case id < 0 || id >= len(u.banks):
		a.Failf("names bank %d of %d", id, len(u.banks))
	case wt.last > u.eng.Now():
		a.Failf("request last examined at cycle %d, after the checkpoint's %d", wt.last, u.eng.Now())
	default:
		wt.bank = u.banks[id]
		if wt.gen = wt.bank.gen; !current {
			wt.gen--
		}
	}
}

func (b *L2Bank) archive(a *ckpt.Archive) {
	a.Sub(b.tags, "tags")
	ckpt.Map(a, &b.mshr, 17, func(a *ckpt.Archive, addr uint64, e *mshrEntry) {
		a.U8((*uint8)(&e.state))
		ckpt.Slice(a, &e.waiters, doneBytes, b.u.archiveDone)
		if e.state != mshrDemand && e.state != mshrPrefetch {
			a.Failf("checkpoint MSHR %#x has invalid state %d", addr, e.state)
		}
		if a.Loading() {
			b.san.Insert(b.u.eng.Now(), addr)
		}
	})
	if len(b.mshr) > b.u.cfg.L2MSHRs {
		a.Failf("checkpoint has %d MSHR entries, capacity is %d", len(b.mshr), b.u.cfg.L2MSHRs)
	}
	b.u.archivePort(a, b.localIn, "local port")
	b.u.archivePort(a, b.remoteIn, "remote port")
	a.U64(&b.reads)
	a.U64(&b.writes)
	a.U64(&b.missesIssued)
	a.U64(&b.mshrMerges)
	a.U64(&b.mshrConflicts)
	a.U64(&b.prefetches)
	a.Int(&b.peakMSHR)
}

func (l *LLCSlice) archive(a *ckpt.Archive) {
	a.Sub(l.tags, "tags")
	ckpt.Map(a, &l.mshr, 16, func(a *ckpt.Archive, addr uint64, ws *[]llcWaiter) {
		ckpt.Slice(a, ws, doneBytes+8, func(a *ckpt.Archive, lw *llcWaiter) {
			l.u.archiveDone(a, &lw.done)
			a.U64(&lw.extra)
		})
		if a.Loading() {
			l.san.Insert(l.u.eng.Now(), addr)
		}
	})
	a.U64(&l.reads)
	a.U64(&l.writes)
	a.U64(&l.mshrMerges)
}

func (m *MemCtrl) archive(a *ckpt.Archive) {
	a.U64(&m.nextFree)
	a.Len(len(m.openRow), "DRAM banks")
	for i := range m.openRow {
		a.U64(&m.openRow[i])
		a.Bool(&m.rowValid[i])
	}
	a.U64(&m.reads)
	a.U64(&m.writes)
	a.U64(&m.stallCycle)
	a.U64(&m.rowHits)
	a.U64(&m.rowMisses)
}

// The whole slot table is archived — including inactive slots and the
// exact free-list order — because calendar events address slots by id and
// future slot recycling must replay identically.
func (m *MCPU) archive(a *ckpt.Archive) {
	ckpt.Slice(a, &m.txns, minTxnBytes, func(a *ckpt.Archive, t *gatherTxn) {
		a.Bool(&t.active)
		a.Bool(&t.write)
		a.Int(&t.remaining)
		m.u.archiveDone(a, &t.done)
		ckpt.Slice(a, &t.lines, 8, (*ckpt.Archive).U64)
		if t.remaining < 0 || t.remaining > len(t.lines) {
			a.Failf("slot awaits %d of its %d lines", t.remaining, len(t.lines))
		}
	})
	ckpt.Slice(a, &m.free, 4, func(a *ckpt.Archive, id *uint32) {
		if a.U32(id); int(*id) >= len(m.txns) {
			a.Failf("free list names slot %d of %d", *id, len(m.txns))
		}
	})
	a.U64(&m.gathers)
	a.U64(&m.scatters)
	a.U64(&m.elements)
	a.U64(&m.lines)
}
