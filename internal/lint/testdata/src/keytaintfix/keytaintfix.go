// Package keytaintfix is the analysistest-style fixture for the keytaint
// analyzer. The type names mirror internal/core — the analyzer matches
// sources and sinks structurally (any type named Config, Result, Stats,
// Engine, System, Tracer), so the fixture needs no imports and loads as
// a partial tree: the analyzer falls back to its built-in source spec
// and skips the encoder cross-check.
package keytaintfix

// Config mirrors core.Config: the three key-excluded execution-strategy
// fields are taint sources; everything else is key-included and clean.
type Config struct {
	Cores             int
	MaxCycles         uint64
	Workers           int
	CheckpointAt      uint64
	DisableBlockCache bool
}

// Result mirrors core.Result: every field except the audit fields
// (WallTime, Par) is a sink.
type Result struct {
	Cycles   uint64
	ExitCode int
	WallTime float64
	Par      int
}

// Stats mirrors cpu.Stats: every field is a sink.
type Stats struct {
	Retired uint64
}

// Tracer mirrors trace.Tracer: Event calls are sinks.
type Tracer struct{}

func (t *Tracer) Event(kind string, arg uint64) {}

// System mirrors core.System: the cycle field is a sink.
type System struct {
	cycle uint64
	stats Stats
}

// DirectFlow stores a source straight into a sink field.
func DirectFlow(cfg Config, r *Result) {
	r.Cycles = uint64(cfg.Workers) // want `Config\.Workers .*flows into Result\.Cycles`
	r.ExitCode = cfg.Cores         // key-included field: clean
	r.WallTime = float64(cfg.Workers)
	r.Par = cfg.Workers // audit fields legitimately vary: clean
}

// workers launders the source through a helper return value.
func workers(cfg *Config) int { return cfg.Workers }

// InterprocFlow proves the flow survives a call boundary and a local.
func InterprocFlow(cfg *Config, s *System) {
	w := workers(cfg)
	s.stats.Retired += uint64(w) // want `Config\.Workers .*flows into stats counter Stats\.Retired`
	n := cfg.Cores
	s.cycle += uint64(n) // included field into the cycle: clean
}

// CallSinkFlow passes a source to a trace-emission sink call.
func CallSinkFlow(cfg Config, t *Tracer) {
	t.Event("ckpt", cfg.CheckpointAt) // want `Config\.CheckpointAt .*flows into trace emission Tracer\.Event`
	t.Event("cores", uint64(cfg.Cores))
}

// ControlOnly uses a source only in control flow — the documented
// conservatism boundary: branch decisions are not tracked, so this is
// clean by design (the runtime golden matrix covers it instead).
func ControlOnly(cfg Config, r *Result) {
	if cfg.Workers > 8 {
		r.Cycles++
	}
}

// FieldSensitive proves a sibling field of a tainted struct stays clean:
// reading DisableBlockCache into a local must not smear onto MaxCycles.
func FieldSensitive(cfg *Config, r *Result) {
	d := cfg.DisableBlockCache
	_ = d
	r.Cycles = cfg.MaxCycles
}
