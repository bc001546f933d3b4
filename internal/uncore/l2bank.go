package uncore

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/evsim"
	"github.com/coyote-sim/coyote/internal/san"
)

// mshrState classifies an outstanding miss. A prefetch entry is promoted
// to demand the moment a real request merges into it — after that the
// fill must release waiters like any demand miss.
type mshrState uint8

const (
	mshrDemand   mshrState = iota // a core (or the LLC path) is waiting on the line
	mshrPrefetch                  // speculative next-line fetch; nobody waits
)

// mshrEntry is one in-flight miss: its class and the completions to
// release when the fill arrives.
type mshrEntry struct {
	state   mshrState
	waiters []Done
}

// L2Bank is one bank of the L2 cache: a tag array with MSHRs. Misses are
// merged per line; when the MSHR table is full the request is refused
// (counted as a conflict, the back-pressure the paper's "maximum number of
// in-flight misses" parameter controls) and waits on the uncore's waiting
// list, which examines it again once a cycle (backpressure.go).
//
// The steady-state miss path is allocation-free AND closure-free: requests
// arrive by value through per-bank inbound ports, each outstanding miss
// rides two registered per-bank callbacks (issue, fill) whose word of
// context packs the line address with the routing flags, waiter lists are
// recycled slices of Done values, and writebacks ride the engine's
// arg-carrying events. Every scheduled event therefore carries a registry
// handle, which is what lets the calendar be checkpointed.
type L2Bank struct {
	id   int
	tile int
	u    *Uncore
	tags *cache.Cache

	// Inbound ports from the cores: one per NoC hop class, since a port's
	// latency is fixed. Submit picks the right one.
	localIn  *evsim.Port[Request]
	remoteIn *evsim.Port[Request]

	mshr map[uint64]mshrEntry // line → in-flight miss state
	san  san.MSHR

	waiterPool [][]Done

	// Miss-path stage callbacks, registered once per bank. issueFn's arg
	// packs addr<<2 | remote<<1 | demand; fillFn's packs addr<<1 | remote.
	// Line addresses are line-aligned, so the shifted packing is lossless
	// for any address below 2^62.
	issueFn func(uint64)
	issueH  evsim.Handle
	fillFn  func(uint64)
	fillH   evsim.Handle

	// gen counts the changes to this bank's MSHR set or tag residency: it
	// is bumped wherever an MSHR entry is inserted or released and by
	// functional warming. A waiting request whose last examination saw the
	// current gen would be refused again with no effect on simulated
	// state, which is what lets the waiting list skip it.
	gen uint64

	wbFn func(uint64) // pre-bound writeback issue; arg is the line address
	wbH  evsim.Handle

	// statistics
	reads         uint64
	writes        uint64
	missesIssued  uint64
	mshrMerges    uint64
	mshrConflicts uint64
	prefetches    uint64
	peakMSHR      int
}

func newL2Bank(id, tile int, u *Uncore) (*L2Bank, error) {
	tags, err := cache.New(u.cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("uncore: bank %d: %w", id, err)
	}
	b := &L2Bank{
		id:   id,
		tile: tile,
		u:    u,
		tags: tags,
		mshr: make(map[uint64]mshrEntry),
	}
	b.san.Init(fmt.Sprintf("l2bank%d.mshr", id), u.cfg.L2MSHRs)
	tags.SetSanName(fmt.Sprintf("l2bank%d.tags", id))
	b.localIn = evsim.NewPort(u.eng, u.cfg.LocalLatency, b.arrive)
	b.remoteIn = evsim.NewPort(u.eng, u.cfg.NoCLatency, b.arrive)
	b.issueFn = b.issue
	b.issueH = u.eng.RegisterFn(b.issueFn)
	b.fillFn = b.fillEvent
	b.fillH = u.eng.RegisterFn(b.fillFn)
	b.wbFn = func(addr uint64) { b.u.memSide(addr, true, 0, Done{}) }
	b.wbH = u.eng.RegisterFn(b.wbFn)
	return b, nil
}

// issue runs L2MissLatency + one NoC hop after the miss was detected:
// the transaction leaves toward the LLC/memory controller, carrying the
// response hop latency so the reply lands back at the bank. arg packs
// addr<<2 | remote<<1 | demand.
//
//coyote:allocfree
func (b *L2Bank) issue(arg uint64) {
	addr := arg >> 2
	remote := arg>>1&1 != 0
	demand := arg&1 != 0
	var back evsim.Cycle
	if demand {
		back = b.u.noc.delay(true)
	}
	fill := uint64(0)
	if remote {
		fill = 1
	}
	b.u.memSide(addr, false, back, Done{F: b.fillFn, Arg: addr<<1 | fill, H: b.fillH})
}

// fillEvent completes the memory fetch for arg = addr<<1 | remote.
//
//coyote:allocfree
func (b *L2Bank) fillEvent(arg uint64) {
	b.fill(arg>>1, arg&1 != 0)
}

func (b *L2Bank) getWaiters() []Done {
	if n := len(b.waiterPool); n > 0 {
		w := b.waiterPool[n-1]
		b.waiterPool = b.waiterPool[:n-1]
		return w
	}
	return make([]Done, 0, 4) //coyote:alloc-ok pool refill: grows the waiter-list pool to its high-water mark once
}

// ID returns the global bank index.
func (b *L2Bank) ID() int { return b.id }

// Tile returns the tile this bank belongs to.
func (b *L2Bank) Tile() int { return b.tile }

// CacheStats exposes the tag-array statistics.
func (b *L2Bank) CacheStats() cache.Stats {
	b.u.settle()
	return b.tags.Stats
}

// Accesses returns the total number of lookups handled. Like reads, writes
// and the tag store's Misses it counts examinations, not requests: a
// request refused by a full MSHR table is looked up again every cycle it
// waits (mshr_conflicts counts those).
func (b *L2Bank) Accesses() uint64 {
	b.u.settle()
	return b.reads + b.writes
}

// changed records that the bank's MSHR set or tag residency moved, so
// every request waiting on this bank is examined at the next tick.
func (b *L2Bank) changed() {
	b.gen++
	b.u.stale = true
}

// arrive is the sink of both inbound ports: a request the bank refuses
// joins the uncore's waiting list.
//
//coyote:allocfree
func (b *L2Bank) arrive(req Request) {
	if !b.handle(req) {
		b.u.park(b, req)
	}
}

// handle examines a request at the bank — on arrival, and again from the
// waiting list while it is refused. It reports false when the request
// missed into a full MSHR table: the lookup is counted, any victim the
// allocation evicted stays evicted, the line itself is not kept, and the
// caller is expected to present the request again.
//
//coyote:allocfree
func (b *L2Bank) handle(req Request) bool {
	if req.Write {
		b.writes++
	} else {
		b.reads++
	}

	// A line already being fetched: merge reads into the MSHR; writes to
	// an in-flight line simply ride along (the fill will leave the line
	// present; we conservatively mark it dirty by re-accessing on fill).
	if e, inflight := b.mshr[req.Addr]; inflight {
		b.mshrMerges++
		b.san.Merge(b.u.eng.Now(), req.Addr)
		if req.Done.F != nil {
			if e.waiters == nil {
				e.waiters = b.getWaiters()
			}
			e.waiters = append(e.waiters, req.Done)
			e.state = mshrDemand // a waiter attached: promote prefetch entries
			b.mshr[req.Addr] = e
		}
		return true
	}

	res := b.tags.Access(req.Addr, req.Write)
	if res.HasWriteback {
		b.writebackToMem(res.Writeback)
	}
	if res.Hit {
		if req.Done.F != nil {
			// Lookup latency plus the return traversal, folded into one
			// scheduled event.
			delay := b.u.cfg.L2HitLatency + b.u.noc.delay(b.tile != req.Tile)
			b.u.eng.ScheduleArgH(delay, req.Done.F, req.Done.Arg, req.Done.H)
		}
		return true
	}

	// Miss. The Access above already allocated the tag (fill-on-miss
	// model); the MSHR tracks the outstanding memory fetch.
	if len(b.mshr) >= b.u.cfg.L2MSHRs {
		// Structural hazard: refuse. The victim the allocation evicted is
		// gone for good (tags are timing-only), the line itself is handed
		// back so it is not claimed before an examination succeeds — which
		// leaves a free way, so a repeat examination evicts nothing.
		b.mshrConflicts++
		b.tags.Invalidate(req.Addr)
		return false
	}
	var waiters []Done
	if req.Done.F != nil {
		waiters = b.getWaiters()
		waiters = append(waiters, req.Done)
	}
	b.san.Insert(b.u.eng.Now(), req.Addr)
	b.mshr[req.Addr] = mshrEntry{state: mshrDemand, waiters: waiters}
	b.changed() // also covers the prefetch entries this examination inserts below
	if n := len(b.mshr); n > b.peakMSHR {
		b.peakMSHR = n
	}
	b.missesIssued++
	// bank → (miss issue + NoC) → memory side; the response flows back
	// over the NoC to the bank.
	toMem := b.u.cfg.L2MissLatency + b.u.noc.delay(true)
	issueArg := req.Addr << 2
	if b.tile != req.Tile {
		issueArg |= 2
	}
	b.u.eng.ScheduleArgH(toMem, b.issueFn, issueArg|1, b.issueH)

	// Next-line prefetch (paper §III-A future work: "prefetching,
	// streaming"): fetch the following PrefetchDepth lines into this bank
	// if they are absent, idle MSHR capacity permitting.
	addr := req.Addr
	lineBytes := uint64(b.u.cfg.L2.LineBytes)
	// Prefetches may use at most half the MSHRs, so demand misses are
	// never refused for long because of speculative traffic.
	prefetchBudget := b.u.cfg.L2MSHRs / 2
	for d := 1; d <= b.u.cfg.PrefetchDepth; d++ {
		pa := addr + uint64(d)*lineBytes
		if b.u.bankFor(req.Tile, pa) != b {
			continue // the neighbouring line belongs to another bank
		}
		if b.tags.Probe(pa) {
			continue
		}
		if _, inflight := b.mshr[pa]; inflight {
			continue
		}
		if len(b.mshr) >= prefetchBudget {
			break
		}
		b.san.Insert(b.u.eng.Now(), pa)
		b.mshr[pa] = mshrEntry{state: mshrPrefetch}
		b.prefetches++
		b.u.eng.ScheduleArgH(toMem, b.issueFn, pa<<2, b.issueH)
	}
	return true
}

// fill completes an outstanding miss: release all merged waiters after
// their return traversal. Prefetch fills (no waiters) just install the
// line. Waiters release as one arg-carrying event each, scheduled
// back-to-back at the same cycle with consecutive seq numbers — the same
// observable order as the old one-closure-over-all-waiters form, without
// the closure.
func (b *L2Bank) fill(addr uint64, remoteReq bool) {
	e := b.mshr[addr]
	b.san.Release(b.u.eng.Now(), addr)
	delete(b.mshr, addr)
	b.changed()
	if !b.tags.Probe(addr) {
		if res := b.tags.Fill(addr); res.HasWriteback {
			b.writebackToMem(res.Writeback)
		}
	}
	waiters := e.waiters
	switch e.state {
	case mshrPrefetch:
		// Merge promotes a prefetch entry to demand the moment a waiter
		// attaches, so a prefetch fill can never owe anyone a response.
		san.Check(len(waiters) == 0, b.u.eng.Now(), "l2bank.mshr",
			"prefetch fill arrived with merged waiters (promotion to demand was lost)",
			addr, uint64(len(waiters)))
	case mshrDemand:
		if len(waiters) > 0 {
			delay := b.u.noc.delay(remoteReq)
			b.u.eng.ScheduleArgH(delay, waiters[0].F, waiters[0].Arg, waiters[0].H)
			for i := 1; i < len(waiters); i++ {
				b.u.noc.delay(remoteReq) // one response message per merged waiter
				b.u.eng.ScheduleArgH(delay, waiters[i].F, waiters[i].Arg, waiters[i].H)
			}
		}
	}
	if waiters != nil {
		b.waiterPool = append(b.waiterPool, waiters[:0])
	}
}

// writebackToMem sends an evicted dirty line toward memory.
func (b *L2Bank) writebackToMem(addr uint64) {
	b.u.eng.ScheduleArgH(b.u.noc.delay(true), b.wbFn, addr, b.wbH)
}

// Name implements evsim.Unit.
func (b *L2Bank) Name() string { return fmt.Sprintf("l2bank%d", b.id) }

// Counters implements evsim.Unit.
func (b *L2Bank) Counters() map[string]uint64 {
	b.u.settle()
	s := b.tags.Stats
	return map[string]uint64{
		"reads":          b.reads,
		"writes":         b.writes,
		"hits":           s.Hits,
		"misses":         s.Misses,
		"writebacks":     s.Writebacks,
		"misses_issued":  b.missesIssued,
		"mshr_merges":    b.mshrMerges,
		"mshr_conflicts": b.mshrConflicts,
		"prefetches":     b.prefetches,
		"peak_mshr":      uint64(b.peakMSHR),
	}
}
