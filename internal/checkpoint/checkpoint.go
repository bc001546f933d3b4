// Package checkpoint defines the on-disk simulator checkpoint format and
// the save/load entry points the harness drivers use.
//
// # File format (SchemaVersion 2)
//
//	offset  size  field
//	0       8     magic "COYOCKPT"
//	8       4     schema version (LE u32)
//	12      8     payload length N (LE u64)
//	20      N     payload (see below)
//	20+N    32    SHA-256 over bytes [0, 20+N)
//
// The payload is an internal/ckpt section:
//
//	kernel name, Params JSON, Config JSON        — run identity
//	assembled program (bases, text, data, entry,
//	  sorted symbol table)                       — restore needs no assembler
//	trace events + last-event cycle              — harness tracer prefix
//	machine state                                — core.System.CheckpointState
//
// Integrity is all-or-nothing: any flipped byte fails the trailing
// checksum, any truncation fails a length check, and both reject the file
// before a single field reaches the simulator. There is no partial or
// best-effort load.
//
// # Versioning
//
// SchemaVersion mirrors the rcache.SchemaVersion bump policy: the binary
// layout IS the code of the component serializers (internal/ckpt has no
// per-field tags), so ANY layout change — a new field in a component's
// Checkpoint method, a reordering, a width change — must bump the version
// here. Old files are then rejected with a clear error instead of being
// misparsed; checkpoints are cheap to regenerate, so there are no
// migration paths, only refusals (same stance as rcache: stale entries
// are never found again).
//
// Version history:
//
//	1  first format.
//	2  the uncore section lost each L2 bank's retry queue and gained, at
//	   its end, the list of the requests waiting on a full MSHR table
//	   (bank, request, cycle its counters are settled through, whether
//	   the bank is unchanged since its last examination) and a second
//	   one, empty after cycle 1, of those refused while the engine was
//	   catching up; two more callbacks are registered per uncore, which
//	   renumbers the handles stored in calendar events and completions.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/trace"
)

// Magic identifies a Coyote checkpoint file.
const Magic = "COYOCKPT"

// SchemaVersion versions the whole binary layout, including every
// component serializer reached through core.System.CheckpointState. Bump
// on any layout change; see the package comment.
const SchemaVersion = 2

// Meta identifies the run a checkpoint belongs to.
type Meta struct {
	Kernel string
	Params kernels.Params
	Config core.Config
}

// Image is a loaded, integrity-verified checkpoint.
type Image struct {
	Meta        Meta
	Prog        *asm.Program
	TraceEvents []trace.Event
	TraceLast   uint64

	// State is the machine payload for core.System.RestoreState.
	State []byte
}

// Save serializes the stopped system (plus run identity and the tracer's
// event prefix) to path. tw may be nil when the run traces nothing.
func Save(path string, meta Meta, prog *asm.Program, sys *core.System, tw *trace.Writer) error {
	var pw ckpt.Writer
	pw.String(meta.Kernel)
	pj, err := json.Marshal(meta.Params)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding params: %w", err)
	}
	pw.Bytes64(pj)
	cj, err := json.Marshal(meta.Config)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding config: %w", err)
	}
	pw.Bytes64(cj)

	writeProgram(&pw, prog)

	var events []trace.Event
	var last uint64
	if tw != nil {
		events = tw.Events()
		last = tw.Last()
	}
	pw.U64(uint64(len(events)))
	for _, ev := range events {
		pw.U64(ev.Cycle)
		pw.Int(ev.Hart)
		pw.Int(ev.Type)
		pw.U64(ev.Value)
	}
	pw.U64(last)

	var sw ckpt.Writer
	if err := sys.CheckpointState(&sw); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	pw.Bytes64(sw.Bytes())

	payload := pw.Bytes()
	buf := make([]byte, 0, len(Magic)+12+len(payload)+sha256.Size)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and integrity-checks a checkpoint file. Corrupt, truncated,
// foreign or version-mismatched files are rejected with an error — never
// partially loaded.
func Load(path string) (*Image, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(raw)
}

// traceEventBytes is one trace.Event in the payload: four 8-byte fields.
const traceEventBytes = 32

// Decode parses checkpoint file bytes (the testable core of Load).
func Decode(raw []byte) (*Image, error) {
	head := len(Magic) + 12
	if len(raw) < head+sha256.Size {
		return nil, fmt.Errorf("checkpoint: file too short (%d bytes) to be a checkpoint", len(raw))
	}
	if !bytes.Equal(raw[:len(Magic)], []byte(Magic)) {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a Coyote checkpoint)", raw[:len(Magic)])
	}
	version := binary.LittleEndian.Uint32(raw[len(Magic):])
	if version != SchemaVersion {
		return nil, fmt.Errorf("checkpoint: schema version %d, this build reads %d (regenerate the checkpoint)", version, SchemaVersion)
	}
	plen := binary.LittleEndian.Uint64(raw[len(Magic)+4:])
	if plen != uint64(len(raw)-head-sha256.Size) {
		return nil, fmt.Errorf("checkpoint: payload length %d disagrees with file size %d (truncated or padded)", plen, len(raw))
	}
	want := raw[head+int(plen):]
	sum := sha256.Sum256(raw[:head+int(plen)])
	if !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (corrupt file)")
	}

	r := ckpt.NewReader(raw[head : head+int(plen)])
	img := &Image{}
	img.Meta.Kernel = r.String()
	pj := r.Bytes64()
	cj := r.Bytes64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := json.Unmarshal(pj, &img.Meta.Params); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding params: %w", err)
	}
	if err := json.Unmarshal(cj, &img.Meta.Config); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding config: %w", err)
	}

	prog, err := readProgram(r)
	if err != nil {
		return nil, err
	}
	img.Prog = prog

	nEv := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// A valid checksum does not vouch for the writer: refuse a count the
	// rest of the payload could not hold before allocating by it.
	if nEv > uint64(r.Remaining()/traceEventBytes) {
		return nil, fmt.Errorf("checkpoint: trace claims %d events of %d bytes with %d bytes left", nEv, traceEventBytes, r.Remaining())
	}
	img.TraceEvents = make([]trace.Event, 0, nEv)
	for i := uint64(0); i < nEv; i++ {
		var ev trace.Event
		ev.Cycle = r.U64()
		ev.Hart = r.Int()
		ev.Type = r.Int()
		ev.Value = r.U64()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		img.TraceEvents = append(img.TraceEvents, ev)
	}
	img.TraceLast = r.U64()
	img.State = r.Bytes64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after payload", r.Remaining())
	}
	return img, nil
}

// Restore builds a fresh System from the image's Config, loads the
// serialized program and reloads the machine state. The returned system
// is ready to continue with Run/RunTo. tw, when non-nil, is seeded with
// the checkpointed trace prefix.
func (img *Image) Restore(tw *trace.Writer) (*core.System, error) {
	sys, err := core.New(img.Meta.Config)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	sys.LoadProgram(img.Prog)
	if err := sys.RestoreState(ckpt.NewReader(img.State)); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if tw != nil {
		tw.Seed(img.TraceEvents, img.TraceLast)
		sys.Tracer = tw
	}
	return sys, nil
}

func writeProgram(w *ckpt.Writer, p *asm.Program) {
	w.U64(p.TextBase)
	w.Bytes64(p.Text)
	w.U64(p.DataBase)
	w.Bytes64(p.Data)
	w.U64(p.Entry)
	syms := make([]string, 0, len(p.Symbols))
	//coyote:mapiter-ok keys are sorted immediately below, erasing visit order
	for name := range p.Symbols {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	w.U64(uint64(len(syms)))
	for _, name := range syms {
		w.String(name)
		w.U64(p.Symbols[name])
	}
}

func readProgram(r *ckpt.Reader) (*asm.Program, error) {
	p := &asm.Program{Symbols: map[string]uint64{}}
	p.TextBase = r.U64()
	p.Text = r.Bytes64()
	p.DataBase = r.U64()
	p.Data = r.Bytes64()
	p.Entry = r.U64()
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: program: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		name := r.String()
		v := r.U64()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: program: %w", err)
		}
		p.Symbols[name] = v
	}
	return p, nil
}
