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
// The payload is an internal/ckpt section, laid out by Image.archive:
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
// layout IS the code of the components' archive methods (internal/ckpt has
// no per-field tags; each component states its layout once, for both
// directions), so ANY layout change — a new field in an archive method, a
// reordering, a width change — must bump the version here. Old files are
// then rejected with a clear error instead of being misparsed;
// checkpoints are cheap to regenerate, so there are no migration paths,
// only refusals (same stance as rcache: stale entries are never found
// again). testdata/checkpoint.golden (root TestCheckpointLayoutGolden)
// pins the SHA-256 of whole files and is the first test to fail when a
// layout moves without a bump.
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

// archive is the payload's layout: run identity, the assembled program
// (restore needs no assembler), the tracer's event prefix, the machine
// state as one byte string.
func (img *Image) archive(a *ckpt.Archive) {
	a.String(&img.Meta.Kernel)
	archiveJSON(a, &img.Meta.Params, "params")
	archiveJSON(a, &img.Meta.Config, "config")
	if a.Loading() {
		img.Prog = &asm.Program{}
	}
	a.In(func(a *ckpt.Archive) {
		p := img.Prog
		a.U64(&p.TextBase)
		a.Bytes(&p.Text)
		a.U64(&p.DataBase)
		a.Bytes(&p.Data)
		a.U64(&p.Entry)
		ckpt.Map(a, &p.Symbols, 16, func(a *ckpt.Archive, _ string, addr *uint64) { a.U64(addr) })
	}, "program")
	a.In(func(a *ckpt.Archive) {
		ckpt.Slice(a, &img.TraceEvents, traceEventBytes, func(a *ckpt.Archive, ev *trace.Event) {
			a.U64(&ev.Cycle)
			a.Int(&ev.Hart)
			a.Int(&ev.Type)
			a.U64(&ev.Value)
		})
	}, "trace events")
	a.U64(&img.TraceLast)
	a.Bytes(&img.State)
}

// traceEventBytes is one trace.Event in the payload: four 8-byte fields.
const traceEventBytes = 32

// archiveJSON archives v as a byte string holding its JSON encoding.
func archiveJSON(a *ckpt.Archive, v any, what string) {
	var j []byte
	var err error
	if !a.Loading() {
		j, err = json.Marshal(v)
	}
	if a.Bytes(&j); a.Loading() && a.Err() == nil {
		err = json.Unmarshal(j, v)
	}
	if err != nil {
		a.Failf("%s JSON: %w", what, err)
	}
}

// Save serializes the stopped system (plus run identity and the tracer's
// event prefix) to path. tw may be nil when the run traces nothing.
func Save(path string, meta Meta, prog *asm.Program, sys *core.System, tw *trace.Writer) error {
	img := Image{Meta: meta, Prog: prog}
	if tw != nil {
		img.TraceEvents, img.TraceLast = tw.Events(), tw.Last()
	}
	var sw, pw ckpt.Writer
	if err := sys.CheckpointState(&sw); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	img.State = sw.Bytes()
	if err := ckpt.Saving(&pw).Do(img.archive); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}

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

	// A valid checksum does not vouch for the writer: every length in the
	// payload is still bounded by the bytes left before it is believed.
	r := ckpt.NewReader(raw[head : head+int(plen)])
	img := &Image{}
	if err := ckpt.Loading(r).Do(img.archive); err != nil {
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
