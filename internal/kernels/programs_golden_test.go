package kernels_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/rcache"
)

const programsGoldenPath = "testdata/programs.golden"

// TestProgramsGolden pins the assembled image of every shipped kernel —
// text, data, bases, entry and symbols, as rcache.HashProgram digests them
// — so an assembler change that moves one byte of any kernel is named here
// rather than surfacing as a cycle-count diff in the root goldens (which
// cover 7 of the 16). Regenerate only for a deliberate kernel-source or ISA
// change:
//
//	COYOTE_UPDATE_GOLDEN=1 go test -run TestProgramsGolden ./internal/kernels
func TestProgramsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range kernels.Names() {
		k, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(k.Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%-24s %x\n", name, rcache.HashProgram(prog))
	}
	got := b.String()

	if os.Getenv("COYOTE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(programsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", programsGoldenPath)
		return
	}
	want, err := os.ReadFile(programsGoldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with COYOTE_UPDATE_GOLDEN=1 go test -run TestProgramsGolden ./internal/kernels", err)
	}
	if got != string(want) {
		t.Fatalf("assembled kernel images changed.\n\ngot:\n%s\nwant:\n%s", got, want)
	}
}
