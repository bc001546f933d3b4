// Package asm implements a two-pass RISC-V assembler for the subset of the
// ISA in internal/riscv. It exists because the paper's kernels are
// bare-metal RISC-V programs built with the GNU toolchain; with no
// cross-toolchain available the kernels in internal/kernels are written in
// assembly source and assembled in-process, so the simulator still fetches,
// decodes and executes genuine machine code.
//
// Supported syntax: labels, the usual pseudo-instructions (li, la, mv, j,
// call, ret, beqz, ...), sections (.text/.data), data directives (.byte,
// .half, .word, .dword, .double, .asciz, .zero, .align), .equ constants,
// and the "v0.t" mask suffix on vector instructions.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/coyote-sim/coyote/internal/mem"
)

// Options controls program layout.
type Options struct {
	TextBase uint64
	DataBase uint64
}

// DefaultOptions places text at the conventional RISC-V reset base and
// data 1 MiB above it.
func DefaultOptions() Options {
	return Options{TextBase: 0x8000_0000, DataBase: 0x8010_0000}
}

// Program is an assembled binary image.
type Program struct {
	TextBase uint64
	Text     []byte
	DataBase uint64
	Data     []byte
	Symbols  map[string]uint64
	Entry    uint64
}

// LoadInto copies the program image into simulated memory.
func (p *Program) LoadInto(m *mem.Memory) {
	m.WriteBytes(p.TextBase, p.Text)
	m.WriteBytes(p.DataBase, p.Data)
}

// Size returns the total image size in bytes.
func (p *Program) Size() int { return len(p.Text) + len(p.Data) }

// maxImageBytes bounds text plus data. Pass 1 refuses a source that would
// pass it before pass 2 allocates anything, so a 24-byte ".space
// 0x100000000" cannot exhaust the host. The largest shipped kernel image is
// under 4 KiB.
const maxImageBytes = 256 << 20

type section int

const (
	secText section = iota
	secData
)

// Assemble translates source into a Program using default layout options.
func Assemble(src string) (*Program, error) {
	return AssembleWith(src, DefaultOptions())
}

// AssembleWith translates source with explicit layout options.
func AssembleWith(src string, opt Options) (*Program, error) {
	items, err := parseLines(src)
	if err != nil {
		return nil, err
	}

	// Pass 1: layout. Walk items tracking location counters per section,
	// define labels and .equ constants.
	syms := make(map[string]uint64)
	equs := make(map[string]uint64)
	sec := secText
	loc := [2]uint64{opt.TextBase, opt.DataBase}
	for i, it := range items {
		var n uint64
		switch {
		case it.label != "":
			if _, dup := syms[it.label]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", it.line, it.label)
			}
			syms[it.label] = loc[sec]
		case strings.HasPrefix(it.name, "."):
			var err error
			if n, sec, err = directiveSize(it, sec, loc[sec], equs); err != nil {
				return nil, fmt.Errorf("line %d: %w", it.line, err)
			}
		default:
			if sec != secText {
				return nil, fmt.Errorf("line %d: instruction outside .text", it.line)
			}
			words, err := instrWords(it.name, it.operands, equs)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", it.line, err)
			}
			n = uint64(4 * words)
		}
		if used := loc[secText] - opt.TextBase + loc[secData] - opt.DataBase; n > maxImageBytes-used {
			return nil, fmt.Errorf("line %d: image would exceed %d MiB", it.line, maxImageBytes>>20)
		}
		items[i].size = n
		loc[sec] += n
	}
	for k, v := range equs {
		if _, clash := syms[k]; clash {
			return nil, fmt.Errorf(".equ %q clashes with a label", k)
		}
		syms[k] = v
	}

	// Pass 2: emit.
	p := &Program{
		TextBase: opt.TextBase,
		Text:     make([]byte, 0, loc[secText]-opt.TextBase),
		DataBase: opt.DataBase,
		Data:     make([]byte, 0, loc[secData]-opt.DataBase),
		Symbols:  syms,
	}
	sec = secText
	for _, it := range items {
		before := p.Size()
		switch {
		case it.label != "":
			// defined in pass 1
		case strings.HasPrefix(it.name, "."):
			newSec, err := emitDirective(it, sec, p, syms)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", it.line, err)
			}
			sec = newSec
		default:
			pc := opt.TextBase + uint64(len(p.Text))
			words, err := encodeInstruction(it.name, it.operands, pc, syms)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s: %w", it.line, it.name, err)
			}
			for _, w := range words {
				p.Text = binary.LittleEndian.AppendUint32(p.Text, w)
			}
		}
		// A .set redefined after pass 1 read it (li's length) would move
		// everything behind this statement off its label.
		if got := uint64(p.Size() - before); got != it.size {
			return nil, fmt.Errorf("line %d: %s is %d bytes, was laid out as %d", it.line, it.name, got, it.size)
		}
	}

	p.Entry = opt.TextBase
	if e, ok := syms["_start"]; ok {
		p.Entry = e
	}
	return p, nil
}

// directiveSize computes a directive's size contribution for pass 1 and
// tracks section switches and .equ definitions.
func directiveSize(it item, sec section, loc uint64, equs map[string]uint64) (uint64, section, error) {
	switch it.name {
	case ".text":
		return 0, secText, nil
	case ".data", ".bss", ".rodata", ".section":
		return 0, secData, nil
	case ".global", ".globl", ".option", ".attribute", ".type", ".size", ".p2align":
		return 0, sec, nil
	case ".equ", ".set":
		if len(it.operands) != 2 {
			return 0, sec, fmt.Errorf("%s: want name, value", it.name)
		}
		v, err := evalExpr(it.operands[1], equs)
		if err != nil {
			return 0, sec, err
		}
		equs[it.operands[0]] = uint64(v)
		return 0, sec, nil
	case ".align":
		if len(it.operands) != 1 {
			return 0, sec, fmt.Errorf(".align: want one operand")
		}
		n, err := strconv.Atoi(strings.TrimSpace(it.operands[0]))
		if err != nil || n < 0 || n > 16 {
			return 0, sec, fmt.Errorf(".align: bad exponent %q", it.operands[0])
		}
		a := uint64(1) << n
		return (a - loc%a) % a, sec, nil
	case ".byte":
		return uint64(len(it.operands)), sec, nil
	case ".half", ".2byte":
		return 2 * uint64(len(it.operands)), sec, nil
	case ".word", ".4byte", ".float":
		return 4 * uint64(len(it.operands)), sec, nil
	case ".dword", ".8byte", ".quad", ".double":
		return 8 * uint64(len(it.operands)), sec, nil
	case ".zero", ".skip", ".space":
		if len(it.operands) != 1 {
			return 0, sec, fmt.Errorf("%s: want one operand", it.name)
		}
		v, err := evalExpr(it.operands[0], equs)
		if err != nil || v < 0 {
			return 0, sec, fmt.Errorf("%s: bad size %q", it.name, it.operands[0])
		}
		return uint64(v), sec, nil
	case ".asciz", ".string":
		s, err := unquote(strings.Join(it.operands, ","))
		if err != nil {
			return 0, sec, err
		}
		return uint64(len(s) + 1), sec, nil
	case ".ascii":
		s, err := unquote(strings.Join(it.operands, ","))
		if err != nil {
			return 0, sec, err
		}
		return uint64(len(s)), sec, nil
	default:
		return 0, sec, fmt.Errorf("unknown directive %s", it.name)
	}
}

// emitDirective emits directive bytes into the program for pass 2.
func emitDirective(it item, sec section, p *Program, syms map[string]uint64) (section, error) {
	buf := &p.Text
	if sec == secData {
		buf = &p.Data
	}

	emitInts := func(width int) error {
		for _, o := range it.operands {
			v, err := evalExpr(o, syms)
			if err != nil {
				return err
			}
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], uint64(v))
			*buf = append(*buf, tmp[:width]...)
		}
		return nil
	}

	switch it.name {
	case ".text":
		return secText, nil
	case ".data", ".bss", ".rodata", ".section":
		return secData, nil
	case ".global", ".globl", ".option", ".attribute", ".type", ".size",
		".p2align", ".equ", ".set":
		return sec, nil
	case ".align", ".zero", ".skip", ".space":
		// Pass 1's size, not a second evaluation: it is the one the image
		// bound was checked against.
		*buf = append(*buf, make([]byte, it.size)...)
		return sec, nil
	case ".byte":
		return sec, emitInts(1)
	case ".half", ".2byte":
		return sec, emitInts(2)
	case ".word", ".4byte":
		return sec, emitInts(4)
	case ".dword", ".8byte", ".quad":
		return sec, emitInts(8)
	case ".float":
		for _, o := range it.operands {
			f, err := strconv.ParseFloat(strings.TrimSpace(o), 32)
			if err != nil {
				return sec, fmt.Errorf(".float: %w", err)
			}
			*buf = binary.LittleEndian.AppendUint32(*buf, math.Float32bits(float32(f)))
		}
		return sec, nil
	case ".double":
		for _, o := range it.operands {
			f, err := strconv.ParseFloat(strings.TrimSpace(o), 64)
			if err != nil {
				return sec, fmt.Errorf(".double: %w", err)
			}
			*buf = binary.LittleEndian.AppendUint64(*buf, math.Float64bits(f))
		}
		return sec, nil
	case ".asciz", ".string":
		s, err := unquote(strings.Join(it.operands, ","))
		if err != nil {
			return sec, err
		}
		*buf = append(*buf, s...)
		*buf = append(*buf, 0)
		return sec, nil
	case ".ascii":
		s, err := unquote(strings.Join(it.operands, ","))
		if err != nil {
			return sec, err
		}
		*buf = append(*buf, s...)
		return sec, nil
	default:
		return sec, fmt.Errorf("unknown directive %s", it.name)
	}
}

func unquote(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	out, err := strconv.Unquote(s)
	if err != nil {
		return "", fmt.Errorf("bad string %s: %w", s, err)
	}
	return out, nil
}
