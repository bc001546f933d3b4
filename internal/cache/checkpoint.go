package cache

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/ckpt"
)

// archive is the cache's layout in a checkpoint: LRU clock, statistics,
// then every line as (tag, valid, dirty, LRU stamp). The mru memo is not
// part of it: it is rebuilt lazily and always holds its set's maximum LRU
// stamp, so dropping it cannot change any victim choice (see the mru
// field comment). Loading resynchronizes the shadow directory (coyotesan
// builds) to the restored residency.
func (c *Cache) archive(a *ckpt.Archive) {
	a.U64(&c.clock)
	a.U64(&c.Stats.Hits)
	a.U64(&c.Stats.Misses)
	a.U64(&c.Stats.Evictions)
	a.U64(&c.Stats.Writebacks)
	a.Len(len(c.sets), "cache lines")
	if a.Err() != nil {
		return
	}
	if a.Loading() {
		c.san.Reset()
	}
	for i := range c.sets {
		l := &c.sets[i]
		tag, valid, dirty := l.tag(), l.valid(), l.dirty()
		a.U64(&tag)
		a.Bool(&valid)
		a.Bool(&dirty)
		a.U64(&l.lru)
		if !a.Loading() {
			continue
		}
		l.tv = 0
		if valid {
			l.tv = tag<<2 | lineValid
			if dirty {
				l.tv |= lineDirty
			}
			c.san.Install(c.clock, tag)
		}
	}
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
