package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// item is one parsed source element: a label definition, a directive, or
// an instruction awaiting encoding.
type item struct {
	line     int
	label    string   // non-empty for a label definition
	name     string   // directive (with dot) or mnemonic
	operands []string // raw operand strings, comma-split at top level
	size     uint64   // bytes pass 1 laid out for it
}

// parseLines splits source text into items. Comments start with '#' or
// "//" and run to end of line.
func parseLines(src string) ([]item, error) {
	var items []item
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Peel off any leading "label:" definitions.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			head := strings.TrimSpace(line[:idx])
			if !isIdent(head) {
				break
			}
			items = append(items, item{line: lineNo + 1, label: head})
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if tabName, tabRest, found := strings.Cut(line, "\t"); found && len(tabName) < len(name) {
			name, rest = tabName, tabRest
		}
		name = strings.TrimSpace(name)
		ops, err := splitOperands(strings.TrimSpace(rest))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		items = append(items, item{
			line:     lineNo + 1,
			name:     strings.ToLower(name),
			operands: ops,
		})
	}
	return items, nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == '"':
			inStr = !inStr
		case inStr:
		case line[i] == '#':
			return line[:i]
		case line[i] == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}

// splitOperands splits on top-level commas, respecting parentheses and
// string literals.
func splitOperands(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '"':
			inStr = !inStr
		case inStr:
		case s[i] == '(':
			depth++
		case s[i] == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced ')' in %q", s)
			}
		case s[i] == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if depth != 0 || inStr {
		return nil, fmt.Errorf("unbalanced delimiter in %q", s)
	}
	out = append(out, strings.TrimSpace(s[start:]))
	for _, o := range out {
		if o == "" {
			return nil, fmt.Errorf("empty operand in %q", s)
		}
	}
	return out, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// evalExpr evaluates an integer expression: terms joined by + and -,
// where a term is a literal (decimal, 0x, 0b, 0o, char) or a symbol.
func evalExpr(expr string, syms map[string]uint64) (int64, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, fmt.Errorf("empty expression")
	}
	var total int64
	sign := int64(1)
	i := 0
	expectTerm := true
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '+' && !expectTerm:
			sign = 1
			expectTerm = true
			i++
		case c == '-':
			if expectTerm {
				sign = -sign
			} else {
				sign = -1
				expectTerm = true
			}
			i++
		default:
			if !expectTerm {
				return 0, fmt.Errorf("unexpected %q in expression %q", string(c), expr)
			}
			j := i
			for j < len(expr) && expr[j] != '+' && expr[j] != '-' && expr[j] != ' ' {
				j++
			}
			term := expr[i:j]
			v, err := evalTerm(term, syms)
			if err != nil {
				return 0, err
			}
			total += sign * v
			sign = 1
			expectTerm = false
			i = j
		}
	}
	if expectTerm {
		return 0, fmt.Errorf("dangling operator in %q", expr)
	}
	return total, nil
}

func evalTerm(term string, syms map[string]uint64) (int64, error) {
	if len(term) >= 3 && term[0] == '\'' && term[len(term)-1] == '\'' {
		inner := term[1 : len(term)-1]
		if inner == "\\n" {
			return '\n', nil
		}
		if inner == "\\t" {
			return '\t', nil
		}
		if len(inner) == 1 {
			return int64(inner[0]), nil
		}
		return 0, fmt.Errorf("bad character literal %s", term)
	}
	if v, err := strconv.ParseInt(term, 0, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseUint(term, 0, 64); err == nil {
		return int64(v), nil
	}
	if syms != nil {
		if v, ok := syms[term]; ok {
			return int64(v), nil
		}
	}
	return 0, fmt.Errorf("undefined symbol or bad literal %q", term)
}

// parseMemOperand parses "imm(reg)" or "(reg)"; the immediate part may be
// any expression.
func parseMemOperand(s string, syms map[string]uint64) (imm int64, reg string, err error) {
	open := strings.LastIndex(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, "", fmt.Errorf("expected imm(reg), got %q", s)
	}
	reg = strings.TrimSpace(s[open+1 : len(s)-1])
	immStr := strings.TrimSpace(s[:open])
	if immStr == "" {
		return 0, reg, nil
	}
	imm, err = evalExpr(immStr, syms)
	return imm, reg, err
}
