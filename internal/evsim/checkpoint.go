package evsim

import (
	"fmt"
	"sort"

	"github.com/coyote-sim/coyote/internal/ckpt"
)

// Calendar serialization.
//
// A pending event is serializable iff it was scheduled through one of the
// handle-carrying entry points (ScheduleArgH/ScheduleArgAtH, or a Port
// send): the checkpoint stores (when, seq, handle, arg) and the restoring
// engine resolves the handle against its own registry, which matches
// because unit construction — and therefore registration order — is a
// pure function of the Config. Plain closures (Schedule/ScheduleArg
// without a handle) cannot be serialized; every production scheduling
// path in the simulator uses handles, so finding one pending at a
// checkpoint is an error, not a silent drop.
//
// Restored events keep their original seq numbers and the engine's seq
// counter resumes past them, so FIFO tie-breaking — and therefore every
// subsequent event ordering — is bit-identical to the uninterrupted run.

// Fn returns the registered callback for h, or nil for the zero Handle.
// Restore paths use it to turn a checkpointed handle back into the
// function pointer it names.
func (e *Engine) Fn(h Handle) func(uint64) {
	if h == 0 {
		return nil
	}
	return e.fns[h-1]
}

// eventRecord is the serializable form of one pending event.
type eventRecord struct {
	when Cycle
	seq  uint64
	h    Handle
	arg  uint64
}

// eventRecordBytes is one eventRecord in an image: when, seq, handle, arg.
const eventRecordBytes = 28

func archiveRecord(a *ckpt.Archive, rec *eventRecord) {
	a.U64(&rec.when)
	a.U64(&rec.seq)
	a.U32((*uint32)(&rec.h))
	a.U64(&rec.arg)
}

// archive is the engine's layout in a checkpoint: clock, seq and executed
// counters, the registry size (a structural check: handles only mean the
// same callbacks in an engine built from the same Config), then the
// pending events sorted by (when, seq).
func (e *Engine) archive(a *ckpt.Archive) {
	var records []eventRecord
	if !a.Loading() {
		records = e.pendingRecords(a)
	}
	a.U64(&e.now)
	a.U64(&e.seq)
	a.U64(&e.executed)
	a.Len(len(e.fns), "registered callbacks")
	ckpt.Slice(a, &records, eventRecordBytes, archiveRecord)
	if a.Loading() {
		e.base = e.now
		e.ringMinValid = false
		e.insertRecords(a, records)
	}
}

// pendingRecords collects the calendar in (when, seq) order.
func (e *Engine) pendingRecords(a *ckpt.Archive) []eventRecord {
	records := make([]eventRecord, 0, e.pending)
	collect := func(evs []event) {
		for i := range evs {
			ev := &evs[i]
			if ev.h == 0 {
				a.Failf("evsim: pending event at cycle %d has no registered handle (scheduled via a plain closure?)", ev.when)
			}
			records = append(records, eventRecord{when: ev.when, seq: ev.seq, h: ev.h, arg: ev.arg})
		}
	}
	for slot := range e.bucket {
		collect(e.bucket[slot])
	}
	collect(e.overflow)
	sort.Slice(records, func(i, j int) bool {
		if records[i].when != records[j].when {
			return records[i].when < records[j].when
		}
		return records[i].seq < records[j].seq
	})
	return records
}

// insertRecords checks each loaded record and schedules it under its
// original seq, through the registry.
func (e *Engine) insertRecords(a *ckpt.Archive, records []eventRecord) {
	seq := e.seq
	for i, rec := range records {
		switch {
		case a.Err() != nil:
		case rec.h == 0 || int(rec.h) > len(e.fns):
			a.Failf("evsim: checkpoint event %d has invalid handle %d", i, rec.h)
		case rec.when < e.now:
			a.Failf("evsim: checkpoint event at cycle %d precedes the checkpoint clock %d", rec.when, e.now)
		case rec.seq > seq:
			a.Failf("evsim: checkpoint event seq %d exceeds the engine seq counter %d", rec.seq, seq)
		case i > 0 && (rec.when < records[i-1].when || (rec.when == records[i-1].when && rec.seq <= records[i-1].seq)):
			// Sorted by (when, seq), appends within one bucket preserve seq
			// order — the invariant runBucket relies on.
			a.Failf("evsim: checkpoint events out of (when, seq) order at record %d", i)
		}
		if a.Err() != nil {
			break
		}
		e.seq = rec.seq - 1 // enqueue numbers the event e.seq+1
		e.enqueue(rec.when, event{afn: e.fns[rec.h-1], arg: rec.arg, h: rec.h})
	}
	e.seq = seq
	e.san.Counts(e.now, e.pending, e.inRing, len(e.overflow))
}

// Checkpoint writes the engine's clock and pending calendar to w.
func (e *Engine) Checkpoint(w *ckpt.Writer) error { return ckpt.Saving(w).Do(e.archive) }

// Restore reloads clock and calendar from r into a freshly constructed
// engine whose units (and therefore handle registry) match the
// checkpointing one.
func (e *Engine) Restore(r *ckpt.Reader) error {
	if e.pending != 0 {
		return fmt.Errorf("evsim: restore into an engine with %d pending events", e.pending)
	}
	return ckpt.Loading(r).Do(e.archive)
}
