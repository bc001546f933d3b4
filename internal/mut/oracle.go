package mut

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/coyote-sim/coyote/internal/lint"
)

// OracleNames lists the cascade layers in adjudication order. Cheap and
// syntactic layers run first; each mutant is charged to the FIRST layer
// that kills it, so the matrix reads as "what does each layer catch that
// everything before it missed".
var OracleNames = []string{"build", "vet", "lint", "tests", "golden", "san"}

// goldenTests is the -run regex of the golden suite: the root package's
// bit-identical trace/result/cache-key/checkpoint goldens that PR 1-6
// established as the repo's ground truth, plus the ISA table's and the
// assembled kernel images' goldens in goldenPkgs.
const goldenTests = "^(TestTraceDeterminismGolden|TestDeterminismGolden|TestWorkersDeterminismGolden|TestCacheKeyGolden|TestCheckpointGolden|TestCheckpointLayoutGolden|TestISAGolden|TestProgramsGolden)$"

// goldenPkgs are the packages goldenTests is run in.
var goldenPkgs = []string{".", "./internal/riscv", "./internal/kernels"}

// Oracles drives the cascade for one Engine. The expensive shared state —
// the lint suite's whole-program loader — is resolved once and reused for
// every mutant's lint stage.
type Oracles struct {
	eng *Engine

	// TestTimeout bounds each `go test` invocation of the tests, golden
	// and san stages (passed as -timeout and enforced again as a process
	// deadline with headroom). A mutant that hangs a test is killed by
	// that stage, not waited out.
	TestTimeout time.Duration

	lintLoader *lint.Loader
}

// NewOracles builds the cascade driver for eng.
func NewOracles(eng *Engine) *Oracles {
	return &Oracles{eng: eng, TestTimeout: 120 * time.Second}
}

// Fingerprint identifies the oracle set: the go toolchain, the cascade
// and analyzer rosters, the golden regex, and the content of every .go
// file `go list ./...` can see. Folding the whole source tree in makes
// the verdict cache self-invalidating — editing any test, analyzer or
// simulator file changes the fingerprint, so stale verdicts can never be
// replayed against oracles that no longer exist.
func (o *Oracles) Fingerprint() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "coyotemut-oracles/v%d\n", VerdictSchema)
	fmt.Fprintf(h, "go %s\n", runtime.Version())
	fmt.Fprintf(h, "cascade %s\n", strings.Join(OracleNames, ","))
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(h, "analyzer %s\n", a.Name)
	}
	fmt.Fprintf(h, "golden %s %v\n", goldenTests, goldenPkgs)
	type entry struct{ rel, sum string }
	var entries []entry
	for _, pi := range o.eng.infos {
		for _, name := range append(append([]string(nil), pi.GoFiles...), pi.TestGoFiles...) {
			path := filepath.Join(pi.Dir, name)
			src, err := o.eng.src(path)
			if err != nil {
				return "", err
			}
			entries = append(entries, entry{relTo(o.eng.Dir, path), hashBytes(src)})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].rel < entries[j].rel })
	for _, e := range entries {
		fmt.Fprintf(h, "src %s %s\n", e.rel, e.sum)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// stage is one cascade layer: kill or pass one overlaid mutant.
type stage struct {
	name string
	run  func(m *Mutant, ov string) (killed bool, detail string, err error)
}

func (o *Oracles) stages() []stage {
	return []stage{
		{"build", o.buildStage},
		{"vet", o.vetStage},
		{"lint", o.lintStage},
		{"tests", o.testsStage},
		{"golden", o.goldenStage},
		{"san", o.sanStage},
	}
}

// Adjudicate runs the cascade on one (gate-passed) mutant and returns the
// first layer that killed it, a deterministic detail string, and whether
// any layer killed at all.
func (o *Oracles) Adjudicate(m *Mutant, logf func(string, ...any)) (oracle, detail string, killed bool, err error) {
	ov, cleanup, err := o.writeOverlay(m)
	if err != nil {
		return "", "", false, err
	}
	defer cleanup()

	for _, st := range o.stages() {
		k, d, err := st.run(m, ov)
		if err != nil {
			return "", "", false, fmt.Errorf("%s stage: %w", st.name, err)
		}
		if logf != nil {
			verdict := "pass"
			if k {
				verdict = "KILL: " + d
			}
			logf("  %-6s %s", st.name, verdict)
		}
		if k {
			return st.name, d, true, nil
		}
	}
	return "", "", false, nil
}

// writeOverlay materializes the mutant as a go-toolchain overlay: a temp
// copy of the mutated file plus the -overlay JSON mapping the original
// path onto it. The working tree is never touched.
func (o *Oracles) writeOverlay(m *Mutant) (ovPath string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "coyotemut-")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	mutated := filepath.Join(dir, "mutant_"+filepath.Base(m.File))
	if err := os.WriteFile(mutated, m.Content, 0o644); err != nil {
		cleanup()
		return "", nil, err
	}
	ov := struct {
		Replace map[string]string `json:"Replace"`
	}{Replace: map[string]string{m.File: mutated}}
	data, err := json.Marshal(ov)
	if err != nil {
		cleanup()
		return "", nil, err
	}
	ovPath = filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ovPath, data, 0o644); err != nil {
		cleanup()
		return "", nil, err
	}
	return ovPath, cleanup, nil
}

// runGo executes the go tool in the module root with a deadline. It
// returns the combined output and whether the command failed (non-zero
// exit OR deadline exceeded — both are oracle kills, never errors). Only
// failing to start the tool at all surfaces as err.
func (o *Oracles) runGo(timeout time.Duration, args ...string) (out []byte, failed bool, err error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = o.eng.Dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	runErr := cmd.Run()
	if ctx.Err() == context.DeadlineExceeded {
		return append(buf.Bytes(), []byte("\ncoyotemut: timeout\n")...), true, nil
	}
	if runErr != nil {
		if _, isExit := runErr.(*exec.ExitError); isExit {
			return buf.Bytes(), true, nil
		}
		return buf.Bytes(), true, fmt.Errorf("go %s: %w", args[0], runErr)
	}
	return buf.Bytes(), false, nil
}

// buildStage compiles the whole module with the mutant overlaid. The
// typecheck gate makes kills here rare (go/types sees nearly everything
// the compiler does), but the stage stays: it is the layer CI actually
// runs first, and charging compile-visible faults anywhere else would
// misstate the matrix.
func (o *Oracles) buildStage(m *Mutant, ov string) (bool, string, error) {
	out, failed, err := o.runGo(o.TestTimeout, "build", "-overlay", ov, "./...")
	if err != nil {
		return false, "", err
	}
	if failed {
		return true, extractDetail(out), nil
	}
	return false, "", nil
}

// vetStage runs go vet on the mutated package only — vet's checks
// (unreachable code, suspicious shifts, printf) are package-local.
func (o *Oracles) vetStage(m *Mutant, ov string) (bool, string, error) {
	out, failed, err := o.runGo(o.TestTimeout, "vet", "-overlay", ov, m.Pkg)
	if err != nil {
		return false, "", err
	}
	if failed {
		return true, extractDetail(out), nil
	}
	return false, "", nil
}

// lintStage runs the full coyotelint suite in-process over ./internal/...
// with the mutant overlaid — including the interprocedural keytaint,
// specwrite and globalmut lanes. The baseline tree is lint-clean (CI
// enforces it), so any diagnostic at all is a kill.
func (o *Oracles) lintStage(m *Mutant, ov string) (bool, string, error) {
	if o.lintLoader == nil {
		// The analyzers' roots and sinks (cache-key canonicalization,
		// speculative phases, globalfree roots) all live under internal/,
		// so the suite's whole-program view doesn't need cmd/ or examples.
		l, err := lint.NewLoader(o.eng.Dir, []string{"./internal/..."}, lint.LoadOptions{})
		if err != nil {
			return false, "", err
		}
		o.lintLoader = l
	}
	prog, err := o.lintLoader.Load(map[string][]byte{m.File: m.Content})
	if err != nil {
		// Post-gate this means the overlaid tree type-checks per-package
		// but not under the lint loader's stricter whole-view — count it
		// as a lint kill rather than aborting the run.
		return true, firstLine(err.Error()), nil
	}
	res := lint.RunSuite(prog)
	if len(res.Diagnostics) > 0 {
		d := res.Diagnostics[0]
		detail := fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
		if n := len(res.Diagnostics); n > 1 {
			detail = fmt.Sprintf("%s (+%d more)", detail, n-1)
		}
		return true, detail, nil
	}
	return false, "", nil
}

// testsStage runs unit tests with the mutant overlaid. Test selection is
// targeted: the flow call graph's reverse-reachability query finds the
// test functions that can statically reach the mutated function, and only
// those run (grouped per package under one -run regex). Static
// reachability under-approximates — dynamic dispatch contributes no edges
// — so when the query finds nothing (or the mutation site is outside any
// function) the stage falls back to the full test suites of every
// internal package that depends on the mutated one.
func (o *Oracles) testsStage(m *Mutant, ov string) (bool, string, error) {
	targets := o.testTargets(m)
	pkgs := make([]string, 0, len(targets))
	for pkg := range targets {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		args := []string{"test", "-overlay", ov, "-count=1",
			"-timeout", o.TestTimeout.String()}
		if names := targets[pkg]; len(names) > 0 {
			args = append(args, "-run", "^("+strings.Join(names, "|")+")$")
		}
		args = append(args, pkg)
		out, failed, err := o.runGo(o.TestTimeout+30*time.Second, args...)
		if err != nil {
			return false, "", err
		}
		if failed {
			return true, relImport(pkg) + ": " + extractDetail(out), nil
		}
	}
	return false, "", nil
}

// testTargets returns package → test-function names to run (empty name
// list = the package's whole suite). Only internal packages participate;
// the root package's golden suite is the next stage.
func (o *Oracles) testTargets(m *Mutant) map[string][]string {
	flowProg := o.eng.Base.Flow()
	if fn := flowProg.FuncAt(m.Pos); fn != nil {
		targets := map[string][]string{}
		for _, r := range o.eng.Graph().ReachersOf(fn.Key) {
			decl := r.Decl
			if !strings.HasPrefix(decl.Name.Name, "Test") {
				continue
			}
			file := r.File(o.eng.Base.Fset)
			if !strings.HasSuffix(file, "_test.go") || !oraclePkg(r.Pkg.Path) {
				continue
			}
			targets[r.Pkg.Path] = append(targets[r.Pkg.Path], decl.Name.Name)
		}
		if len(targets) > 0 {
			for pkg := range targets {
				sort.Strings(targets[pkg])
			}
			return targets
		}
	}
	// Fallback over-approximation: every internal package whose deps or
	// test imports include the mutated package (plus the package itself),
	// full suite each.
	targets := map[string][]string{}
	for _, pi := range o.eng.infos {
		if len(pi.TestGoFiles) == 0 || !oraclePkg(pi.ImportPath) {
			continue
		}
		if pi.ImportPath == m.Pkg || containsStr(pi.Deps, m.Pkg) || containsStr(pi.TestImports, m.Pkg) {
			targets[pi.ImportPath] = nil
		}
	}
	return targets
}

// oraclePkg reports whether a package's test suite may serve as an
// oracle. Only internal packages qualify (the root package's golden
// suite is its own stage), and the mutation engine itself is excluded:
// internal/mut transitively imports every simulator package, so the
// dependency sweep would otherwise select the engine's own suite for
// every mutant — which recursively re-runs the oracle cascade inside
// the cascade and times out, recording a kill that says nothing about
// the mutant.
func oraclePkg(importPath string) bool {
	if !strings.Contains(importPath, "/internal/") {
		return false
	}
	return !strings.Contains(importPath, "/internal/mut")
}

// goldenStage runs the golden suite: the root package's end-to-end
// bit-identical trace, result and cache-key goldens, and the ISA and
// kernel-image goldens beside the packages they pin.
func (o *Oracles) goldenStage(m *Mutant, ov string) (bool, string, error) {
	out, failed, err := o.runGo(o.TestTimeout+30*time.Second, append([]string{
		"test", "-overlay", ov, "-count=1", "-timeout", o.TestTimeout.String(),
		"-run", goldenTests}, goldenPkgs...)...)
	if err != nil {
		return false, "", err
	}
	if failed {
		return true, extractDetail(out), nil
	}
	return false, "", nil
}

// sanStage re-runs the dependent packages' tests and the golden suite
// with -tags coyotesan, so the runtime sanitizer's shadow structures are
// live. This is the only default-invisible layer: san maintenance calls
// compile to no-op stubs in every earlier stage, so a mutant that breaks
// only the sanitizer's invariants (a leaked MSHR entry, a lost prefetch
// promotion) reaches here untouched and must be killed here or survive.
func (o *Oracles) sanStage(m *Mutant, ov string) (bool, string, error) {
	// Dependent internal packages, full suites (san violations can fire
	// in any test that drives the mutated path).
	pkgs := []string{}
	for _, pi := range o.eng.infos {
		if len(pi.TestGoFiles) == 0 || !oraclePkg(pi.ImportPath) {
			continue
		}
		if pi.ImportPath == m.Pkg || containsStr(pi.Deps, m.Pkg) || containsStr(pi.TestImports, m.Pkg) {
			pkgs = append(pkgs, pi.ImportPath)
		}
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		out, failed, err := o.runGo(o.TestTimeout+30*time.Second,
			"test", "-tags", "coyotesan", "-overlay", ov, "-count=1",
			"-timeout", o.TestTimeout.String(), pkg)
		if err != nil {
			return false, "", err
		}
		if failed {
			return true, relImport(pkg) + ": " + extractDetail(out), nil
		}
	}
	// Golden smoke under the sanitizer: end-to-end kernels with every
	// shadow check armed.
	out, failed, err := o.runGo(o.TestTimeout+30*time.Second, append([]string{
		"test", "-tags", "coyotesan", "-overlay", ov, "-count=1",
		"-timeout", o.TestTimeout.String(), "-run", goldenTests}, goldenPkgs...)...)
	if err != nil {
		return false, "", err
	}
	if failed {
		return true, extractDetail(out), nil
	}
	return false, "", nil
}

// containsStr reports whether list contains s.
func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// relImport trims the module prefix from an import path for display.
func relImport(pkg string) string {
	if i := strings.Index(pkg, "/internal/"); i >= 0 {
		return pkg[i+1:]
	}
	return pkg
}

// extractDetail compresses tool output into a deterministic one-line
// summary: the sorted set of failed test names, the first panic line, or
// failing that the first non-empty line. Deterministic details matter —
// they are part of the cached verdict and the pinned corpus asserts
// against them.
func extractDetail(out []byte) string {
	var fails []string
	seen := map[string]bool{}
	panicLine := ""
	firstNonEmpty := ""
	for _, line := range strings.Split(string(out), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if firstNonEmpty == "" {
			firstNonEmpty = trimmed
		}
		if name, ok := strings.CutPrefix(trimmed, "--- FAIL: "); ok {
			if f := strings.Fields(name); len(f) > 0 && !seen[f[0]] {
				seen[f[0]] = true
				fails = append(fails, f[0])
			}
		}
		if panicLine == "" && strings.HasPrefix(trimmed, "panic:") {
			panicLine = trimmed
		}
	}
	sort.Strings(fails)
	var parts []string
	if len(fails) > 0 {
		parts = append(parts, "FAIL: "+strings.Join(fails, ", "))
	}
	if panicLine != "" {
		parts = append(parts, panicLine)
	}
	if len(parts) == 0 {
		return firstNonEmpty
	}
	return strings.Join(parts, "; ")
}
