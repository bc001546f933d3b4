package riscv

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// span prints a bit range as hi:lo, or one bit as itself.
func span(lo, width uint8) string {
	if width == 1 {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d:%d", lo+width-1, lo)
}

// kindReference renders the operand-kind table as the markdown DESIGN.md
// §2 carries.
func kindReference() string {
	var b strings.Builder
	b.WriteString("| operand kind | value bits → word bits | legal values |\n|---|---|---|\n")
	var slots []string
	for f, segs := range fieldSegs {
		slots = append(slots, fmt.Sprintf("%s %s", []string{"rd", "rs1", "rs2", "rs3"}[f], span(segs[0].to, segs[0].width)))
	}
	for _, k := range kinds {
		where := "the register field's slot: " + strings.Join(slots, ", ")
		if k.segs != nil {
			var parts []string
			for _, s := range k.segs {
				parts = append(parts, fmt.Sprintf("%s → %s", span(s.from, s.width), span(s.to, s.width)))
			}
			where = strings.Join(parts, ", ")
		}
		legal := fmt.Sprintf("%d…%d", k.lo, k.hi)
		if k.step > 1 {
			legal += fmt.Sprintf(", multiples of %d", k.step)
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", k.name, where, legal)
	}
	return b.String()
}

// TestDesignKindReference keeps DESIGN.md's operand-kind reference a
// rendering of the table rather than a second copy of it.
func TestDesignKindReference(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := kindReference(); !strings.Contains(string(design), want) {
		t.Errorf("DESIGN.md §2 does not carry the operand-kind reference the table generates; paste:\n\n%s", want)
	}
}
