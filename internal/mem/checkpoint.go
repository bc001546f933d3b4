package mem

import "github.com/coyote-sim/coyote/internal/ckpt"

// archive is the memory's layout in a checkpoint: every populated page by
// increasing base address, each one bulk copy. The lookaside is a pure
// memo and is not part of it.
func (m *Memory) archive(a *ckpt.Archive) {
	ckpt.Map(a, &m.pages, 16+PageSize, func(a *ckpt.Archive, base uint64, p **page) {
		var data []byte
		if !a.Loading() {
			data = (*p)[:]
		}
		a.Bytes(&data)
		switch {
		case a.Err() != nil:
		case base&pageMask != 0:
			a.Failf("mem: checkpoint page base %#x is not page-aligned", base)
		case len(data) != PageSize:
			a.Failf("mem: checkpoint page %#x has %d bytes, want %d", base, len(data), PageSize)
		default:
			*p = (*page)(data)
		}
	})
}

// Checkpoint writes the memory contents to w.
func (m *Memory) Checkpoint(w *ckpt.Writer) error { return ckpt.Saving(w).Do(m.archive) }

// Restore replaces the memory contents with the checkpointed pages.
func (m *Memory) Restore(r *ckpt.Reader) error {
	m.look = [lookasideSize]lookEntry{}
	return ckpt.Loading(r).Do(m.archive)
}
