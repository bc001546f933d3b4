package riscv

import (
	"fmt"
	"strings"
)

// Disasm renders in as assembly text in the canonical operand order.
// It is primarily a debugging aid; Parse reads the output back for every
// instruction whose operands are not symbolic (branch and jump targets).
func Disasm(in Instr) string {
	r := rowOf(in.Op)
	if r == nil {
		return in.Op.String()
	}
	var b strings.Builder
	b.WriteString(in.Op.String())
	sep := " "
	for i, o := range r.ops {
		if o.role&silent != 0 || o.kind == kMask && in.VM {
			continue
		}
		// A base register directly after an offset attaches to it: 16(sp).
		if !(o.kind == kBase && i > 0 && r.ops[i-1].isImm()) {
			b.WriteString(sep)
		}
		sep = ", "
		v := in.get(o.field)
		switch o.kind {
		case kX:
			b.WriteString(XRegName(uint8(v)))
		case kF:
			b.WriteString(FRegName(uint8(v)))
		case kV:
			b.WriteString(VRegName(uint8(v)))
		case kBase:
			b.WriteString("(" + XRegName(uint8(v)) + ")")
		case kMask:
			b.WriteString("v0.t")
		case kUimm20:
			fmt.Fprintf(&b, "%#x", v)
		case kCSR12:
			b.WriteString(CSRName(uint16(v)))
		case kVType11, kVType10:
			t, _ := DecodeVType(uint64(v))
			fmt.Fprintf(&b, "e%d, m%d", t.SEW, t.LMUL)
		default:
			fmt.Fprintf(&b, "%d", v)
		}
	}
	return b.String()
}

// arity is how many comma-separated text operands form may be written
// with: an offset and its base register share one, v0.t is optional, and
// a vtype is one to four (eSEW, mLMUL, ta|tu, ma|mu).
func arity(form []operand) (lo, hi int) {
	for i, o := range form {
		switch {
		case o.role&silent != 0, o.kind == kBase && i > 0 && form[i-1].isImm():
		case o.kind == kMask:
			hi++
		case o.kind == kVType11, o.kind == kVType10:
			lo, hi = lo+1, hi+4
		default:
			lo, hi = lo+1, hi+1
		}
	}
	return lo, hi
}

// Parse is Disasm's inverse: the Instr that mnemonic name with the text
// operands ops stands for at address pc (branch and jump targets are
// written as addresses). eval evaluates an integer expression; what symbols
// it knows is the caller's business. Parse checks shape only — whether the
// values fit is Encode's to say, except a value the Instr field itself
// cannot hold — and its errors leave naming the statement to the caller.
func Parse(name string, ops []string, pc uint64, eval func(string) (int64, error)) (Instr, error) {
	op, ok := OpByName(name)
	if !ok {
		return Instr{}, fmt.Errorf("unknown mnemonic %q", name)
	}
	r := rowOf(op)
	form := r.ops
	lo, hi := arity(form)
	if alo, ahi := arity(r.alt); r.alt != nil && (len(ops) < lo || len(ops) > hi) && len(ops) >= alo && len(ops) <= ahi {
		form, lo, hi = r.alt, alo, ahi
	}
	if len(ops) < lo || len(ops) > hi {
		return Instr{}, fmt.Errorf("want %d operands, got %d", lo, len(ops))
	}
	in := Instr{Op: op, VM: true}
	next, carry := 0, "" // carry: the "(reg)" half of an offset(base) operand
	for i, o := range form {
		if o.role&silent != 0 {
			continue
		}
		text := carry
		if carry = ""; text == "" {
			if next == len(ops) { // only an omitted v0.t can be left
				break
			}
			text = strings.TrimSpace(ops[next])
			next++
		}
		paren := strings.LastIndex(text, "(")
		if o.isImm() && i+1 < len(form) && form[i+1].kind == kBase {
			// offset(base): this operand is what precedes the parenthesis
			// (nothing means 0), the next one is the rest.
			if paren < 0 {
				return Instr{}, fmt.Errorf("expected imm(reg), got %q", text)
			}
			text, carry = strings.TrimSpace(text[:paren]), text[paren:]
			if text == "" {
				text = "0"
			}
		}
		var v int64
		var err error
		switch o.kind {
		case kX:
			v, err = regByName(XRegByName, "integer", text)
		case kF:
			v, err = regByName(FRegByName, "FP", text)
		case kV:
			v, err = regByName(VRegByName, "vector", text)
		case kBase:
			// (reg); a zero offset in front of it is tolerated.
			if paren < 0 || !strings.HasSuffix(text, ")") {
				return Instr{}, fmt.Errorf("expected (reg), got %q", text)
			}
			if off := strings.TrimSpace(text[:paren]); off != "" {
				if n, err := eval(off); err != nil || n != 0 {
					return Instr{}, fmt.Errorf("want (rs1) operand, got %q", text)
				}
			}
			v, err = regByName(XRegByName, "integer", text[paren+1:len(text)-1])
		case kMask:
			if !strings.EqualFold(text, "v0.t") {
				err = fmt.Errorf("expected v0.t, got %q", text)
			}
		case kBranch13, kJump21:
			v, err = eval(text)
			v -= int64(pc)
		case kCSR12:
			if addr, ok := CSRByName(text); ok {
				v = int64(addr)
			} else if v, err = eval(text); err != nil { // Disasm's csr0x7b spelling
				if v, err = eval(strings.TrimPrefix(text, "csr")); err != nil {
					err = fmt.Errorf("bad CSR %q", text)
				}
			}
		case kVType11, kVType10:
			v, err = parseVType(ops[next-1:])
			next = len(ops)
		default:
			v, err = eval(text)
		}
		if err != nil {
			return Instr{}, err
		}
		in = in.with(o.field, v)
		if in.get(o.field) != v {
			// The value as written does not fit the Instr field (256 in a
			// uint8), so Encode would be shown it wrapped: apply Encode's
			// rule here, to the value it cannot see.
			return Instr{}, kinds[o.kind].check(v)
		}
	}
	return in, nil
}

func regByName(lookup func(string) (uint8, bool), file, s string) (int64, error) {
	if r, ok := lookup(strings.TrimSpace(s)); ok {
		return int64(r), nil
	}
	return 0, fmt.Errorf("bad %s register %q", file, s)
}

// parseVType parses the eSEW[, mLMUL][, ta|tu][, ma|mu] tail of vsetvli.
func parseVType(ops []string) (int64, error) {
	vt := VType{LMUL: 1}
	for _, o := range ops {
		o = strings.ToLower(strings.TrimSpace(o))
		switch {
		case o == "ta", o == "tu":
			vt.TA = o == "ta"
		case o == "ma", o == "mu":
			vt.MA = o == "ma"
		case strings.HasPrefix(o, "e"):
			if _, err := fmt.Sscanf(o, "e%d", &vt.SEW); err != nil {
				return 0, fmt.Errorf("bad SEW %q", o)
			}
		case strings.HasPrefix(o, "m"):
			if _, err := fmt.Sscanf(o, "m%d", &vt.LMUL); err != nil {
				return 0, fmt.Errorf("bad LMUL %q", o)
			}
		default:
			return 0, fmt.Errorf("bad vtype operand %q", o)
		}
	}
	if vt.SEW == 0 {
		return 0, fmt.Errorf("missing eSEW operand")
	}
	return EncodeVType(vt)
}
