package lint

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts analysistest-style expectations: a "// want" comment
// followed by a regexp in backquotes, on the line the diagnostic must land
// on. Multiple wants may share a line.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

func loadFixture(t *testing.T, pkg string, overlay map[string][]byte) *Program {
	t.Helper()
	prog, err := Load(".", []string{"./testdata/src/" + pkg}, overlay)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	return prog
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants scans the fixture sources on disk for want markers.
func collectWants(t *testing.T, prog *Program) []*want {
	t.Helper()
	var wants []*want
	for _, p := range prog.Packages {
		for _, name := range p.Filenames {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("reading fixture %s: %v", name, err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, m[1], err)
					}
					wants = append(wants, &want{file: name, line: i + 1, re: re})
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over one fixture package and verifies
// the diagnostics match the want markers exactly: every diagnostic must
// hit a want, every want must be hit.
func checkFixture(t *testing.T, a *Analyzer, pkg string) {
	t.Helper()
	prog := loadFixture(t, pkg, nil)
	res := RunAnalyzers(prog, []*Analyzer{a}, nil)
	wants := collectWants(t, prog)

	for _, d := range res.Diagnostics {
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", res.Format(d))
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMapIterFixture(t *testing.T)    { checkFixture(t, MapIterAnalyzer, "mapiterfix") }
func TestWallClockFixture(t *testing.T)  { checkFixture(t, WallClockAnalyzer, "wallclockfix") }
func TestFloatOrderFixture(t *testing.T) { checkFixture(t, FloatOrderAnalyzer, "floatorderfix") }
func TestAllocFreeFixture(t *testing.T)  { checkFixture(t, AllocFreeAnalyzer, "allocfreefix") }
func TestStateCheckFixture(t *testing.T) { checkFixture(t, StateCheckAnalyzer, "statecheckfix") }
func TestPortProtoFixture(t *testing.T)  { checkFixture(t, PortProtoAnalyzer, "portprotofix") }
func TestKeyTaintFixture(t *testing.T)   { checkFixture(t, KeyTaintAnalyzer, "keytaintfix") }
func TestSpecWriteFixture(t *testing.T)  { checkFixture(t, SpecWriteAnalyzer, "specwritefix") }
func TestGlobalMutFixture(t *testing.T)  { checkFixture(t, GlobalMutAnalyzer, "globalmutfix") }

// TestDirectiveFixture asserts the directive analyzer rejects an unknown
// kind and an escape hatch without a justification, and accepts a
// well-formed one. Expectations are explicit because the diagnostic
// position is the directive comment itself, which cannot also carry a
// want marker.
func TestDirectiveFixture(t *testing.T) {
	prog := loadFixture(t, "directivefix", nil)
	res := RunAnalyzers(prog, []*Analyzer{DirectiveAnalyzer}, nil)
	if len(res.Diagnostics) != 2 {
		for _, d := range res.Diagnostics {
			t.Logf("got: %s", res.Format(d))
		}
		t.Fatalf("directive analyzer reported %d findings, want 2", len(res.Diagnostics))
	}
	if msg := res.Diagnostics[0].Message; !strings.Contains(msg, "unknown directive //coyote:mapiter-okay") {
		t.Errorf("first finding = %q, want unknown-directive complaint", msg)
	}
	if msg := res.Diagnostics[1].Message; !strings.Contains(msg, "needs a justification") {
		t.Errorf("second finding = %q, want missing-justification complaint", msg)
	}
}

// TestStrippedJustificationFails proves every escape-hatch directive in
// the fixtures is load-bearing: re-linting with the directive removed
// (via the loader's overlay) must produce exactly one new finding at the
// formerly justified site.
func TestStrippedJustificationFails(t *testing.T) {
	cases := []struct {
		pkg       string
		directive string
		analyzer  *Analyzer
		wantMsg   string
	}{
		{"mapiterfix", "//coyote:mapiter-ok keys are sorted by the caller before use", MapIterAnalyzer, `range over map`},
		{"wallclockfix", "//coyote:wallclock-ok measures simulator throughput for reporting; never feeds simulated state", WallClockAnalyzer, `time\.Now`},
		{"floatorderfix", "//coyote:floatorder-ok tolerance-checked debug aggregate; not part of simulated state", FloatOrderAnalyzer, `float accumulation`},
		{"allocfreefix", "//coyote:alloc-ok pool warm-up: runs once per unit lifetime", AllocFreeAnalyzer, `make allocates`},
		{"statecheckfix", "//coyote:statecheck-ok only the drain state is reachable here; the dispatcher filters the rest", StateCheckAnalyzer, `misses state`},
		{"portprotofix", "//coyote:portproto-ok prefetch: the fill only warms the tags, nobody consumes the data", PortProtoAnalyzer, `zero Done`},
		{"specwritefix", "//coyote:specwrite-ok fixture: worker-private scratch, justified for the strip test", SpecWriteAnalyzer, `R1: store to Hart\.aux`},
		{"globalmutfix", "//coyote:globalmut-ok fixture: justified read for the strip test", GlobalMutAnalyzer, `mutable package-level variable counter`},
	}
	for _, tc := range cases {
		t.Run(tc.pkg+"/"+tc.analyzer.Name, func(t *testing.T) {
			base := loadFixture(t, tc.pkg, nil)
			before := RunAnalyzers(base, []*Analyzer{tc.analyzer}, nil)

			var file string
			var src []byte
			for _, name := range base.Packages[0].Filenames {
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(string(data), tc.directive) {
					file, src = name, data
					break
				}
			}
			if file == "" {
				t.Fatalf("fixture %s does not contain directive %q", tc.pkg, tc.directive)
			}
			stripped := strings.Replace(string(src), tc.directive, "", 1)

			prog := loadFixture(t, tc.pkg, map[string][]byte{file: []byte(stripped)})
			after := RunAnalyzers(prog, []*Analyzer{tc.analyzer}, nil)

			if len(after.Diagnostics) != len(before.Diagnostics)+1 {
				t.Fatalf("stripping %q: %d findings, want %d",
					tc.directive, len(after.Diagnostics), len(before.Diagnostics)+1)
			}
			re := regexp.MustCompile(tc.wantMsg)
			found := false
			for _, d := range after.Diagnostics {
				if re.MatchString(d.Message) {
					found = true
				}
			}
			if !found {
				t.Errorf("stripping %q produced no finding matching %q", tc.directive, tc.wantMsg)
			}
		})
	}
}
