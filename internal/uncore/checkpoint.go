package uncore

import (
	"fmt"
	"sort"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/evsim"
)

// Checkpoint serializes the uncore's complete in-flight state: every
// bank's tag array, MSHR table and inbound port queues, the list of
// requests waiting on a full MSHR table, the LLC slices, the memory
// controllers' channel watermarks and open rows, the MCPU descriptor
// table, and all statistics. The matching calendar events are serialized
// by the engine; the two halves reference each other only through
// registry handles and MCPU slot ids, both of which are deterministic
// functions of the Config.
func (u *Uncore) Checkpoint(w *ckpt.Writer) error {
	u.settle()
	for _, b := range u.banks {
		if err := b.checkpoint(w); err != nil {
			return err
		}
	}
	for _, l := range u.llcs {
		if err := l.checkpoint(w); err != nil {
			return err
		}
	}
	for _, mc := range u.mcs {
		mc.checkpoint(w)
	}
	u.mcpu.checkpoint(w)
	w.U64(u.noc.localMsgs)
	w.U64(u.noc.remoteMsgs)
	return u.checkpointWaiting(w)
}

// Restore reloads the state written by Checkpoint into a freshly
// constructed uncore with the same Config, resynchronizing the coyotesan
// shadow structures (MSHR in-flight sets, tag directories) as it goes.
func (u *Uncore) Restore(r *ckpt.Reader) error {
	for _, b := range u.banks {
		if err := b.restore(r); err != nil {
			return err
		}
	}
	for _, l := range u.llcs {
		if err := l.restore(r); err != nil {
			return err
		}
	}
	for _, mc := range u.mcs {
		if err := mc.restore(r); err != nil {
			return err
		}
	}
	if err := u.mcpu.restore(r); err != nil {
		return err
	}
	u.noc.localMsgs = r.U64()
	u.noc.remoteMsgs = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	return u.restoreWaiting(r)
}

// checkpointWaiting writes the waiting list, then the requests parked
// while the engine was catching up (only a checkpoint of cycle 1 can find
// any: later ones are examined within the sweep that parked them). Each
// entry is bank, request, the cycle its counters are settled through, and
// whether the bank is unchanged since its last examination. The
// generation numbers themselves are not state — only "current or not"
// decides what the next tick does — so a restored list starts them
// afresh. The tick events are the engine's to restore.
func (u *Uncore) checkpointWaiting(w *ckpt.Writer) error {
	if u.ticking && u.tickedAt != u.eng.Now() {
		return fmt.Errorf("uncore: checkpoint inside cycle %d: its back-pressure tick is still pending", u.eng.Now())
	}
	for _, list := range [][]waiter{u.waiting, u.late} {
		w.U64(uint64(len(list)))
		for _, wt := range list {
			w.Int(wt.bank.id)
			if err := ckptRequest(w, wt.req); err != nil {
				return fmt.Errorf("uncore: waiting list: %w", err)
			}
			w.U64(wt.last)
			w.Bool(wt.gen == wt.bank.gen)
		}
	}
	return nil
}

func (u *Uncore) restoreWaiting(r *ckpt.Reader) error {
	var err error
	if u.waiting, err = u.restoreWaiters(r); err != nil {
		return err
	}
	if u.late, err = u.restoreWaiters(r); err != nil {
		return err
	}
	u.ticking = len(u.waiting) > 0
	u.tickedAt = u.eng.Now()
	u.stale = true // one scan re-derives it from the per-request flags
	return nil
}

func (u *Uncore) restoreWaiters(r *ckpt.Reader) ([]waiter, error) {
	n, err := restoreCount(r, waiterBytes)
	if err != nil {
		return nil, fmt.Errorf("uncore: waiting list: %w", err)
	}
	now := u.eng.Now()
	list := make([]waiter, 0, n)
	for i := 0; i < n; i++ {
		id := r.Int()
		req, err := restoreRequest(r, u.eng)
		if err != nil {
			return nil, fmt.Errorf("uncore: waiting list: %w", err)
		}
		last := r.U64()
		current := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if id < 0 || id >= len(u.banks) {
			return nil, fmt.Errorf("uncore: waiting list names bank %d of %d", id, len(u.banks))
		}
		if last > now {
			return nil, fmt.Errorf("uncore: waiting request last examined at cycle %d, after the checkpoint's %d", last, now)
		}
		b := u.banks[id]
		wt := waiter{bank: b, req: req, last: last, gen: b.gen}
		if !current {
			wt.gen--
		}
		list = append(list, wt)
	}
	return list, nil
}

// ckptDone writes a completion token as (handle, arg). A completion built
// from an unregistered closure (FuncDone in tests) cannot be named in a
// checkpoint.
func ckptDone(w *ckpt.Writer, d Done) error {
	if d.F != nil && d.H == 0 {
		return fmt.Errorf("uncore: in-flight completion has no registry handle (test-only FuncDone?)")
	}
	w.U32(uint32(d.H))
	w.U64(d.Arg)
	return nil
}

func restoreDone(r *ckpt.Reader, eng *evsim.Engine) (Done, error) {
	h := evsim.Handle(r.U32())
	arg := r.U64()
	if h != 0 && int(h) > eng.Registered() {
		return Done{}, fmt.Errorf("uncore: checkpoint completion handle %d out of range", h)
	}
	return Done{F: eng.Fn(h), Arg: arg, H: h}, nil
}

func ckptRequest(w *ckpt.Writer, req Request) error {
	w.Int(req.Tile)
	w.U64(req.Addr)
	w.Bool(req.Write)
	return ckptDone(w, req.Done)
}

func restoreRequest(r *ckpt.Reader, eng *evsim.Engine) (Request, error) {
	var req Request
	req.Tile = r.Int()
	req.Addr = r.U64()
	req.Write = r.Bool()
	done, err := restoreDone(r, eng)
	if err != nil {
		return Request{}, err
	}
	req.Done = done
	return req, r.Err()
}

func ckptRequests(w *ckpt.Writer, reqs []Request) error {
	w.U64(uint64(len(reqs)))
	for _, req := range reqs {
		if err := ckptRequest(w, req); err != nil {
			return err
		}
	}
	return nil
}

// Encoded sizes: a Request is tile(8) + addr(8) + write(1) + done handle(4)
// + done arg(8); a waiting-list entry adds bank(8) + last(8) + current(1).
// An MCPU slot is active(1) + write(1) + remaining(8) + done(12) + line
// count(8) before its lines.
const (
	requestBytes = 29
	waiterBytes  = requestBytes + 17
	minTxnBytes  = 30
)

// restoreCount reads an element count and refuses one the rest of the
// section could not hold at elemBytes apiece — so a corrupt or hostile
// length costs an error, never an allocation sized by the attacker.
func restoreCount(r *ckpt.Reader, elemBytes int) (int, error) {
	n := r.U64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()/elemBytes) {
		return 0, fmt.Errorf("uncore: checkpoint claims %d entries of %d bytes with %d bytes left", n, elemBytes, r.Remaining())
	}
	return int(n), nil
}

func restoreRequests(r *ckpt.Reader, eng *evsim.Engine) ([]Request, error) {
	n, err := restoreCount(r, requestBytes)
	if err != nil {
		return nil, err
	}
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		req, err := restoreRequest(r, eng)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

func (b *L2Bank) checkpoint(w *ckpt.Writer) error {
	if err := b.tags.Checkpoint(w); err != nil {
		return fmt.Errorf("uncore: bank %d: %w", b.id, err)
	}

	addrs := make([]uint64, 0, len(b.mshr))
	for a := range b.mshr { //coyote:mapiter-ok keys are sorted before serialization; the encoding is order-canonical

		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.U64(uint64(len(addrs)))
	for _, a := range addrs {
		e := b.mshr[a]
		w.U64(a)
		w.U8(uint8(e.state))
		w.U64(uint64(len(e.waiters)))
		for _, d := range e.waiters {
			if err := ckptDone(w, d); err != nil {
				return fmt.Errorf("uncore: bank %d: MSHR %#x: %w", b.id, a, err)
			}
		}
	}

	if err := ckptRequests(w, b.localIn.Pending()); err != nil {
		return fmt.Errorf("uncore: bank %d: local port: %w", b.id, err)
	}
	w.U64(b.localIn.Sent())
	if err := ckptRequests(w, b.remoteIn.Pending()); err != nil {
		return fmt.Errorf("uncore: bank %d: remote port: %w", b.id, err)
	}
	w.U64(b.remoteIn.Sent())

	w.U64(b.reads)
	w.U64(b.writes)
	w.U64(b.missesIssued)
	w.U64(b.mshrMerges)
	w.U64(b.mshrConflicts)
	w.U64(b.prefetches)
	w.Int(b.peakMSHR)
	return nil
}

func (b *L2Bank) restore(r *ckpt.Reader) error {
	if err := b.tags.Restore(r); err != nil {
		return fmt.Errorf("uncore: bank %d: %w", b.id, err)
	}
	eng := b.u.eng
	now := eng.Now()

	nMSHR := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nMSHR > uint64(b.u.cfg.L2MSHRs) {
		return fmt.Errorf("uncore: bank %d: checkpoint has %d MSHR entries, capacity is %d", b.id, nMSHR, b.u.cfg.L2MSHRs)
	}
	var lastAddr uint64
	for i := uint64(0); i < nMSHR; i++ {
		addr := r.U64()
		state := mshrState(r.U8())
		nW := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if state != mshrDemand && state != mshrPrefetch {
			return fmt.Errorf("uncore: bank %d: checkpoint MSHR %#x has invalid state %d", b.id, addr, state)
		}
		if i > 0 && addr <= lastAddr {
			return fmt.Errorf("uncore: bank %d: checkpoint MSHR entries out of order at %#x", b.id, addr)
		}
		lastAddr = addr
		var waiters []Done
		for j := uint64(0); j < nW; j++ {
			d, err := restoreDone(r, eng)
			if err != nil {
				return err
			}
			waiters = append(waiters, d)
		}
		b.san.Insert(now, addr)
		b.mshr[addr] = mshrEntry{state: state, waiters: waiters}
	}
	if int(nMSHR) > b.peakMSHR {
		b.peakMSHR = int(nMSHR)
	}

	localPend, err := restoreRequests(r, eng)
	if err != nil {
		return fmt.Errorf("uncore: bank %d: local port: %w", b.id, err)
	}
	localSent := r.U64()
	remotePend, err := restoreRequests(r, eng)
	if err != nil {
		return fmt.Errorf("uncore: bank %d: remote port: %w", b.id, err)
	}
	remoteSent := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	b.localIn.RestorePending(localPend, localSent)
	b.remoteIn.RestorePending(remotePend, remoteSent)

	b.reads = r.U64()
	b.writes = r.U64()
	b.missesIssued = r.U64()
	b.mshrMerges = r.U64()
	b.mshrConflicts = r.U64()
	b.prefetches = r.U64()
	peak := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	b.peakMSHR = peak
	return nil
}

func (l *LLCSlice) checkpoint(w *ckpt.Writer) error {
	if err := l.tags.Checkpoint(w); err != nil {
		return fmt.Errorf("uncore: llc %d: %w", l.id, err)
	}
	addrs := make([]uint64, 0, len(l.mshr))
	for a := range l.mshr { //coyote:mapiter-ok keys are sorted before serialization; the encoding is order-canonical

		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.U64(uint64(len(addrs)))
	for _, a := range addrs {
		ws := l.mshr[a]
		w.U64(a)
		w.U64(uint64(len(ws)))
		for _, lw := range ws {
			if err := ckptDone(w, lw.done); err != nil {
				return fmt.Errorf("uncore: llc %d: MSHR %#x: %w", l.id, a, err)
			}
			w.U64(lw.extra)
		}
	}
	w.U64(l.reads)
	w.U64(l.writes)
	w.U64(l.mshrMerges)
	return nil
}

func (l *LLCSlice) restore(r *ckpt.Reader) error {
	if err := l.tags.Restore(r); err != nil {
		return fmt.Errorf("uncore: llc %d: %w", l.id, err)
	}
	eng := l.u.eng
	now := eng.Now()
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	var lastAddr uint64
	for i := uint64(0); i < n; i++ {
		addr := r.U64()
		nW := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if i > 0 && addr <= lastAddr {
			return fmt.Errorf("uncore: llc %d: checkpoint MSHR entries out of order at %#x", l.id, addr)
		}
		lastAddr = addr
		var ws []llcWaiter
		for j := uint64(0); j < nW; j++ {
			d, err := restoreDone(r, eng)
			if err != nil {
				return err
			}
			extra := r.U64()
			ws = append(ws, llcWaiter{done: d, extra: extra})
		}
		l.san.Insert(now, addr)
		l.mshr[addr] = ws
	}
	l.reads = r.U64()
	l.writes = r.U64()
	l.mshrMerges = r.U64()
	return r.Err()
}

func (m *MemCtrl) checkpoint(w *ckpt.Writer) {
	w.U64(m.nextFree)
	w.U64(uint64(len(m.openRow)))
	for i := range m.openRow {
		w.U64(m.openRow[i])
		w.Bool(m.rowValid[i])
	}
	w.U64(m.reads)
	w.U64(m.writes)
	w.U64(m.stallCycle)
	w.U64(m.rowHits)
	w.U64(m.rowMisses)
}

func (m *MemCtrl) restore(r *ckpt.Reader) error {
	nextFree := r.U64()
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if n != uint64(len(m.openRow)) {
		return fmt.Errorf("uncore: mc %d: checkpoint has %d DRAM banks, this controller has %d", m.id, n, len(m.openRow))
	}
	m.nextFree = nextFree
	for i := range m.openRow {
		m.openRow[i] = r.U64()
		m.rowValid[i] = r.Bool()
	}
	m.reads = r.U64()
	m.writes = r.U64()
	m.stallCycle = r.U64()
	m.rowHits = r.U64()
	m.rowMisses = r.U64()
	return r.Err()
}

func (m *MCPU) checkpoint(w *ckpt.Writer) error {
	// The whole slot table is serialized — including inactive slots and
	// the exact free-list order — because calendar events address slots by
	// id and future slot recycling must replay identically.
	w.U64(uint64(len(m.txns)))
	for i := range m.txns {
		t := &m.txns[i]
		w.Bool(t.active)
		w.Bool(t.write)
		w.Int(t.remaining)
		if err := ckptDone(w, t.done); err != nil {
			return fmt.Errorf("uncore: mcpu slot %d: %w", i, err)
		}
		w.U64(uint64(len(t.lines)))
		for _, line := range t.lines {
			w.U64(line)
		}
	}
	w.U64(uint64(len(m.free)))
	for _, id := range m.free {
		w.U32(id)
	}
	w.U64(m.gathers)
	w.U64(m.scatters)
	w.U64(m.elements)
	w.U64(m.lines)
	return nil
}

func (m *MCPU) restore(r *ckpt.Reader) error {
	eng := m.u.eng
	n, err := restoreCount(r, minTxnBytes)
	if err != nil {
		return err
	}
	m.txns = make([]gatherTxn, n)
	for i := range m.txns {
		t := &m.txns[i]
		t.active = r.Bool()
		t.write = r.Bool()
		t.remaining = r.Int()
		d, err := restoreDone(r, eng)
		if err != nil {
			return err
		}
		t.done = d
		nl, err := restoreCount(r, 8)
		if err != nil {
			return err
		}
		t.lines = make([]uint64, nl)
		for j := range t.lines {
			t.lines[j] = r.U64()
		}
	}
	nf, err := restoreCount(r, 4)
	if err != nil {
		return err
	}
	m.free = make([]uint32, nf)
	for i := range m.free {
		id := r.U32()
		if int(id) >= n {
			return fmt.Errorf("uncore: mcpu free list names slot %d of %d", id, n)
		}
		m.free[i] = id
	}
	m.gathers = r.U64()
	m.scatters = r.U64()
	m.elements = r.U64()
	m.lines = r.U64()
	return r.Err()
}
