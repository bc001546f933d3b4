package riscv

// RegUse describes which architectural registers an instruction reads and
// writes, as bitmasks over the three register files. The Coyote
// orchestrator stalls a core when an instruction names a register with a
// pending memory access (RAW — and WAW, which would corrupt the
// completion bookkeeping), so this must be exact.
type RegUse struct {
	ReadsX, WritesX uint32
	ReadsF, WritesF uint32
	ReadsV, WritesV uint32
}

func xbit(r uint8) uint32 {
	if r == 0 {
		return 0 // x0 is hardwired; never a dependency
	}
	return 1 << r
}

func bit(r uint8) uint32 { return 1 << r }

// groupMask sets lmul consecutive vector-register bits starting at r.
// Register groups wrap at 32 only for malformed programs; mask off.
func groupMask(r uint8, lmul uint) uint32 {
	var m uint32
	for i := uint(0); i < lmul; i++ {
		m |= 1 << ((uint(r) + i) & 31)
	}
	return m
}

// RegUsage computes the register footprint of in. lmul is the current
// vector register-group multiplier (from vtype); pass 1 for scalar code.
func RegUsage(in Instr, lmul uint) RegUse {
	if lmul == 0 {
		lmul = 1
	}
	var u RegUse
	r := rowOf(in.Op)
	if r == nil {
		return u
	}
	for _, o := range r.ops {
		n := uint8(in.get(o.field))
		var m uint32
		reads, writes := &u.ReadsX, &u.WritesX
		switch o.kind {
		case kX, kBase:
			m = xbit(n)
		case kF:
			m, reads, writes = bit(n), &u.ReadsF, &u.WritesF
		case kV:
			m, reads, writes = groupMask(n, lmul), &u.ReadsV, &u.WritesV
			if o.role&elem0 != 0 {
				m = bit(n)
			}
		case kMask:
			if !in.VM {
				u.ReadsV |= 1 // a masked op reads the mask register v0
			}
		}
		if o.role&read != 0 {
			*reads |= m
		}
		if o.role&write != 0 {
			*writes |= m
		}
	}
	return u
}
