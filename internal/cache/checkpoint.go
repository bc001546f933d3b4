package cache

import (
	"encoding/binary"
	"fmt"

	"github.com/coyote-sim/coyote/internal/ckpt"
)

// archive is the cache's layout in a checkpoint: LRU clock, statistics,
// then every line as one lineRecord. The mru memo is not part of it: it is
// rebuilt lazily and always holds its set's maximum LRU stamp, so dropping
// it cannot change any victim choice (see the mru field comment). Loading
// resynchronizes the shadow directory (coyotesan builds) to the restored
// residency.
func (c *Cache) archive(a *ckpt.Archive) {
	a.U64(&c.clock)
	a.U64(&c.Stats.Hits)
	a.U64(&c.Stats.Misses)
	a.U64(&c.Stats.Evictions)
	a.U64(&c.Stats.Writebacks)
	a.Len(len(c.sets), "cache lines")
	recs := a.Records(len(c.sets), lineRecord)
	if a.Err() != nil {
		return
	}
	if a.Loading() {
		c.san.Reset()
	}
	for i := range c.sets {
		l, r := &c.sets[i], recs[i*lineRecord:(i+1)*lineRecord]
		if !a.Loading() {
			binary.LittleEndian.PutUint64(r, l.tag())
			r[8], r[9] = flagByte(l.valid()), flagByte(l.dirty())
			binary.LittleEndian.PutUint64(r[10:], l.lru)
			continue
		}
		if r[8] > 1 || r[9] > 1 {
			a.Failf("cache: line %d has valid and dirty bytes %#x %#x, want 0 or 1", i, r[8], r[9])
			return
		}
		tag := binary.LittleEndian.Uint64(r)
		l.lru = binary.LittleEndian.Uint64(r[10:])
		l.tv = 0
		if r[8] == 1 {
			l.tv = tag<<2 | lineValid | uint64(r[9])*lineDirty
			c.san.Install(c.clock, tag)
		}
	}
}

// lineRecord is a line's size in a checkpoint: tag(8), valid(1), dirty(1),
// LRU stamp(8), little-endian.
const lineRecord = 18

func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Checkpoint writes the cache to w. A checkpoint may only be taken outside
// a speculative episode; the caller (core.System) guarantees the harts are
// between instructions.
func (c *Cache) Checkpoint(w *ckpt.Writer) error {
	if c.spec.active {
		return fmt.Errorf("cache: checkpoint during an active speculative episode")
	}
	return ckpt.Saving(w).Do(c.archive)
}

// Restore replaces the tag store, clock and statistics from r and drops
// the memos derived from them.
func (c *Cache) Restore(r *ckpt.Reader) error {
	err := ckpt.Loading(r).Do(c.archive)
	for i := range c.mru {
		c.mru[i] = nil
	}
	c.warm = nil
	return err
}
