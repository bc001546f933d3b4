package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/trace"
)

// saveMidRun runs a kernel to a mid-point cycle and checkpoints it,
// returning the file path.
func saveMidRun(t testing.TB) string {
	return saveRun(t, "axpy-scalar", kernels.Params{N: 64, Cores: 2}, core.DefaultConfig(2), 500)
}

// saveRun runs kernel to cycle stopAt, traced, and checkpoints it there.
func saveRun(t testing.TB, kernel string, p kernels.Params, cfg core.Config, stopAt uint64) string {
	t.Helper()
	k, err := kernels.Get(kernel)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(k.Source)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.LoadProgram(prog)
	k.Setup(sys.Mem, sys.MustSymbol("args"), p)
	tw := trace.NewWriter(cfg.Cores)
	sys.Tracer = tw
	if _, stopped, err := sys.RunTo(stopAt); err != nil {
		t.Fatal(err)
	} else if !stopped {
		t.Fatalf("kernel finished before cycle %d; pick a longer run", stopAt)
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	meta := Meta{Kernel: kernel, Params: p, Config: cfg}
	if err := Save(path, meta, prog, sys, tw); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := saveMidRun(t)
	img, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if img.Meta.Kernel != "axpy-scalar" || img.Meta.Params.N != 64 || img.Meta.Config.Cores != 2 {
		t.Fatalf("meta did not round trip: %+v", img.Meta)
	}
	if len(img.Prog.Text) == 0 || img.Prog.Entry == 0 {
		t.Fatal("program did not round trip")
	}
	sys, err := img.Restore(trace.NewWriter(img.Meta.Config.Cores))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cycle() != 500 {
		t.Fatalf("restored clock %d, want 500", sys.Cycle())
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
}

// TestCorruptionRejected proves the all-or-nothing integrity contract:
// every single-byte flip anywhere in the file, every truncation, a
// foreign magic and a future schema version are all rejected on load —
// a checkpoint is never silently, partially or approximately loaded.
func TestCorruptionRejected(t *testing.T) {
	path := saveMidRun(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Byte flips at representative positions: magic, version, length,
	// early payload, mid payload, last payload byte, checksum itself.
	positions := []int{0, 9, 15, 25, len(data) / 2, len(data) - 33, len(data) - 1}
	for _, pos := range positions {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("flipped byte %d of %d: not rejected", pos, len(data))
		}
	}

	// Truncations, including cutting inside the header and checksum.
	for _, n := range []int{0, 4, len(Magic) + 11, 40, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes: not rejected", n, len(data))
		}
	}

	// Appended garbage changes the checksummed region's implied extent.
	if _, err := Decode(append(append([]byte(nil), data...), 0xEE)); err == nil {
		t.Error("trailing garbage byte: not rejected")
	}

	// A well-formed file of a future schema version must be refused with
	// a version message, not misparsed.
	future := append([]byte(nil), data...)
	future[len(Magic)] = SchemaVersion + 1
	_, err = Decode(future)
	if err == nil {
		t.Fatal("future schema version: not rejected")
	}
	if !strings.Contains(err.Error(), "schema version") {
		// (The flipped version byte also breaks the checksum; the version
		// check must win so the user sees the actionable message.)
		t.Errorf("future version rejected with %q, want a schema-version error", err)
	}
}

// sectionWalk steps over a machine-state section the way a forger who
// knows the layout would, to find where its counts sit.
type sectionWalk struct {
	b   []byte
	off int
}

func (w *sectionWalk) skip(n int) { w.off += n }

func (w *sectionWalk) count() int {
	w.off += 8
	return int(binary.LittleEndian.Uint64(w.b[w.off-8:]))
}

// tags steps over a cache section: clock and four counters, then 18 bytes
// a line behind the line count.
func (w *sectionWalk) tags() {
	w.skip(40)
	w.skip(18 * w.count())
}

// stateCounts holds the offsets in a machine state of counts a hostile
// writer could forge, -1 where the machine had no such entry in flight:
// the first bank MSHR entry's waiter count, the first LLC MSHR entry's, the
// first MCPU slot's line count, the late waiting list's count and the
// calendar's record count.
type stateCounts struct {
	bankWaiters, llcWaiters, mcpuLines, lateList, calendar int
}

// locateCounts finds the engine and uncore sections of state by
// re-serializing them from the restored sys (restore → re-checkpoint is
// byte-identical) and walks the uncore's, checking that the walk ends where
// the section does.
func locateCounts(t *testing.T, state []byte, sys *core.System) stateCounts {
	t.Helper()
	var ew, uw ckpt.Writer
	if err := sys.Eng.Checkpoint(&ew); err != nil {
		t.Fatal(err)
	}
	if err := sys.Uncore.Checkpoint(&uw); err != nil {
		t.Fatal(err)
	}
	// The engine section sits right in front of the uncore's.
	at := bytes.Index(state, slices.Concat(ew.Bytes(), uw.Bytes()))
	if at < 0 {
		t.Fatal("cannot locate the engine and uncore sections")
	}
	// Clock, seq, executed and registry size precede the record count.
	c := stateCounts{bankWaiters: -1, llcWaiters: -1, mcpuLines: -1, calendar: at + 32}
	first := func(p *int, off int) {
		if *p < 0 {
			*p = off
		}
	}
	w := &sectionWalk{b: state, off: at + ew.Len()}
	for range sys.Uncore.Banks() {
		w.tags()
		for n := w.count(); n > 0; n-- {
			w.skip(9) // line address, state
			first(&c.bankWaiters, w.off)
			w.skip(12 * w.count())
		}
		for port := 0; port < 2; port++ {
			w.skip(29 * w.count())
			w.skip(8) // sent
		}
		w.skip(56)
	}
	for range sys.Uncore.LLCs() {
		w.tags()
		for n := w.count(); n > 0; n-- {
			w.skip(8) // line address
			first(&c.llcWaiters, w.off)
			w.skip(20 * w.count())
		}
		w.skip(24)
	}
	for range sys.Uncore.MemCtrls() {
		w.skip(8)
		w.skip(9 * w.count())
		w.skip(40)
	}
	for n := w.count(); n > 0; n-- {
		w.skip(22) // active, write, remaining, completion
		first(&c.mcpuLines, w.off)
		w.skip(8 * w.count())
	}
	w.skip(4 * w.count()) // free list
	w.skip(32 + 16)       // MCPU counters, NoC counters
	w.skip(46 * w.count())
	c.lateList = w.off
	w.skip(46 * w.count())
	if end := at + ew.Len() + uw.Len(); w.off != end {
		t.Fatalf("uncore section walk ended at %d, the section at %d", w.off, end)
	}
	return c
}

// TestHostileLengthRejected hands the loader files whose checksum is valid
// but whose machine state claims 2^40 of something. Integrity checks
// cannot catch that — the writer may simply be hostile — so the reader
// must: an error, and no allocation sized by the claim. Every count goes
// through ckpt.Slice or ckpt.Map, which refuse one the bytes left could
// not hold. Before that was the only way to read a length, the waiter
// counts of bank and LLC MSHR entries were looped on unchecked: the
// bank-waiters case did not fail there, it exhausted the host's memory.
func TestHostileLengthRejected(t *testing.T) {
	// A gather kernel behind an LLC with MCPU offload, stopped with an MSHR
	// entry in a bank, one in an LLC slice and a used MCPU slot.
	gather := core.DefaultConfig(2)
	gather.Hart.MCPUOffload = true
	gather.Uncore.LLCEnable = true
	gatherRun := func(t *testing.T) string {
		return saveRun(t, "spmv-vector-gather", kernels.Params{N: 64, Cores: 2, Density: 0.05}, gather, 800)
	}
	cases := []struct {
		name    string
		save    func(*testing.T) string
		count   func(stateCounts) int
		wantErr string
	}{
		{"waiting list", func(t *testing.T) string { return saveMidRun(t) }, func(c stateCounts) int { return c.lateList }, "waiting list"},
		{"bank MSHR waiters", gatherRun, func(c stateCounts) int { return c.bankWaiters }, "uncore: bank"},
		{"LLC MSHR waiters", gatherRun, func(c stateCounts) int { return c.llcWaiters }, "uncore: llc"},
		{"MCPU lines", gatherRun, func(c stateCounts) int { return c.mcpuLines }, "uncore: mcpu"},
		{"calendar records", gatherRun, func(c stateCounts) int { return c.calendar }, "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(tc.save(t))
			if err != nil {
				t.Fatal(err)
			}
			img, err := Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := img.Restore(nil)
			if err != nil {
				t.Fatal(err)
			}
			count := tc.count(locateCounts(t, img.State, sys))
			if count < 0 {
				t.Fatal("test premise broken: the machine was stopped with no such entry in flight")
			}
			// The machine state is the payload's last field.
			payloadEnd := len(raw) - sha256.Size
			bad := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(bad[payloadEnd-len(img.State)+count:], 1<<40)
			sum := sha256.Sum256(bad[:payloadEnd])
			copy(bad[payloadEnd:], sum[:])

			hostile, err := Decode(bad)
			if err != nil {
				t.Fatalf("the checksum was recomputed, Decode must accept the file: %v", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = hostile.Restore(nil)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("hostile length: got %v, want an error naming %q", err, tc.wantErr)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<20 {
				t.Errorf("restore allocated %d MB before refusing the length", grew>>20)
			}
		})
	}
}

// TestHostileTraceCountRejected: the trace-event count sits in the file
// payload itself, ahead of the machine state. With a valid checksum and a
// count of 2^40, Decode must return an error without allocating 32 TB.
func TestHostileTraceCountRejected(t *testing.T) {
	raw, err := os.ReadFile(saveMidRun(t))
	if err != nil {
		t.Fatal(err)
	}
	img, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	// After the count: the events, the last-cycle word, the state's length
	// prefix, the state. Then the checksum.
	payloadEnd := len(raw) - sha256.Size
	count := payloadEnd - len(img.State) - 8 - 8 - traceEventBytes*len(img.TraceEvents) - 8
	if got := binary.LittleEndian.Uint64(raw[count:]); got != uint64(len(img.TraceEvents)) || got == 0 {
		t.Fatalf("cannot locate the trace-event count (read %d, image has %d)", got, len(img.TraceEvents))
	}
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[count:], 1<<40)
	sum := sha256.Sum256(bad[:payloadEnd])
	copy(bad[payloadEnd:], sum[:])
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "trace events") || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("hostile trace-event count: got %v, want a trace-count error", err)
	}
}

// TestConfigWithRemovedKeyRestores: Config lost its FastForward field
// without a schema bump, so an image written before still carries the key
// in its Config JSON. It must load and restore as if the key were absent
// (the run loop it selected is now the only one, and timing never depended
// on it).
func TestConfigWithRemovedKeyRestores(t *testing.T) {
	raw, err := os.ReadFile(saveMidRun(t))
	if err != nil {
		t.Fatal(err)
	}
	img, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := json.Marshal(img.Meta.Config)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, cj)
	if at < 8 || binary.LittleEndian.Uint64(raw[at-8:]) != uint64(len(cj)) {
		t.Fatalf("cannot locate the Config JSON in the payload (at %d)", at)
	}
	old := bytes.Replace(cj, []byte(`"MaxCycles":`), []byte(`"FastForward":true,"MaxCycles":`), 1)
	if len(old) == len(cj) {
		t.Fatal("Config JSON has no MaxCycles key to anchor the insertion")
	}
	head := len(Magic) + 12
	payloadEnd := len(raw) - sha256.Size
	var file []byte
	file = append(file, raw[:at-8]...)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(old)))
	file = append(file, old...)
	file = append(file, raw[at+len(cj):payloadEnd]...)
	binary.LittleEndian.PutUint64(file[len(Magic)+4:], uint64(len(file)-head))
	sum := sha256.Sum256(file)
	file = append(file, sum[:]...)

	legacy, err := Decode(file)
	if err != nil {
		t.Fatalf("image with a FastForward key in its Config: %v", err)
	}
	if !reflect.DeepEqual(legacy.Meta.Config, img.Meta.Config) {
		t.Errorf("Config decoded from the legacy image differs:\n%+v\n%+v", legacy.Meta.Config, img.Meta.Config)
	}
	sys, err := legacy.Restore(nil)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	want, err := img.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != wantRes.Cycles || res.Instructions != wantRes.Instructions {
		t.Errorf("resumed legacy image: %d cycles, %d instructions; want %d, %d",
			res.Cycles, res.Instructions, wantRes.Cycles, wantRes.Instructions)
	}
}
