package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/evsim"
)

// Result aggregates everything a simulation run produced: the outputs the
// paper lists in §III-A ("statistics about memory accesses — miss rates,
// number of stalls due to dependencies — and the execution time of the
// simulated application") plus wall-clock throughput.
type Result struct {
	Cycles       uint64
	Instructions uint64
	WallTime     time.Duration

	HartStats []cpu.Stats
	L1I, L1D  cache.Stats // aggregated over all cores
	UncoreRaw map[string]uint64

	ExitCodes []uint64
	Consoles  []string

	// Par reports parallel-orchestrator speculation outcomes (all zero
	// for Workers <= 1). Not part of the golden determinism surface: the
	// counters legitimately vary with the worker count even though the
	// committed simulation state does not.
	Par ParStats

	// Host says where the orchestrator's own work went. Like Par it is
	// outside the golden determinism surface: the counts depend on the
	// execution strategy (engine, InterleaveQuantum, Workers, where the
	// run was stopped and resumed) while the simulated result does not.
	Host HostStats
}

// HostStats counts the run loop's work on the host, from inside: hart
// visits (StepAhead/StepBlock/Step quanta attempted, busy cycles
// included), instructions retired ahead of the clock, and the cycles the
// clock passed over because nothing was due in them. Counted from
// construction or restore; not checkpointed.
type HostStats struct {
	Visits         uint64 `json:"visits"`
	LookaheadInstr uint64 `json:"lookahead_instr"`
	ClockJumps     uint64 `json:"clock_jumps"`
	CyclesJumped   uint64 `json:"cycles_jumped"`
}

// MIPS returns simulated millions of instructions per wall-clock second —
// the metric of Figure 3.
func (r *Result) MIPS() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Instructions) / 1e6 / r.WallTime.Seconds()
}

// IPC returns retired instructions per simulated cycle across all cores.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// TotalStalls sums dependency-stall cycles over all cores.
func (r *Result) TotalStalls() uint64 {
	var n uint64
	for _, h := range r.HartStats {
		n += h.StallsRAW + h.StallsFetch
	}
	return n
}

// L2Stats aggregates hit/miss counts over every L2 bank.
func (r *Result) L2Stats() cache.Stats {
	var s cache.Stats
	//coyote:mapiter-ok commutative sums into independent fields; visit order cannot change any total
	for k, v := range r.UncoreRaw {
		switch {
		case strings.HasPrefix(k, "l2bank") && strings.HasSuffix(k, ".hits"):
			s.Hits += v
		case strings.HasPrefix(k, "l2bank") && strings.HasSuffix(k, ".misses"):
			s.Misses += v
		case strings.HasPrefix(k, "l2bank") && strings.HasSuffix(k, ".writebacks"):
			s.Writebacks += v
		}
	}
	return s
}

// MemReads sums line reads over all memory controllers.
func (r *Result) MemReads() uint64 {
	var n uint64
	//coyote:mapiter-ok integer sum filtered by key prefix; commutative, order cannot matter
	for k, v := range r.UncoreRaw {
		if strings.HasPrefix(k, "mc") && strings.HasSuffix(k, ".reads") {
			n += v
		}
	}
	return n
}

// MemWrites sums line writes over all memory controllers.
func (r *Result) MemWrites() uint64 {
	var n uint64
	//coyote:mapiter-ok integer sum filtered by key prefix; commutative, order cannot matter
	for k, v := range r.UncoreRaw {
		if strings.HasPrefix(k, "mc") && strings.HasSuffix(k, ".writes") {
			n += v
		}
	}
	return n
}

// MemTrafficBytes estimates DRAM traffic given the line size.
func (r *Result) MemTrafficBytes(lineBytes int) uint64 {
	return (r.MemReads() + r.MemWrites()) * uint64(lineBytes)
}

// BankLoads returns per-bank access counts in bank order — used by the
// bank-mapping experiment to measure load imbalance.
func (r *Result) BankLoads() []uint64 {
	type kv struct {
		id int
		n  uint64
	}
	var rows []kv
	//coyote:mapiter-ok rows are sorted by bank id immediately below, erasing visit order
	for k, v := range r.UncoreRaw {
		var id int
		if n, _ := fmt.Sscanf(k, "l2bank%d.reads", &id); n == 1 && strings.HasSuffix(k, ".reads") {
			rows = append(rows, kv{id, v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = r.n
	}
	return out
}

// collect builds the Result at end of run.
func (s *System) collect(wall time.Duration) *Result {
	r := &Result{
		Cycles:    s.cycle,
		WallTime:  wall,
		UncoreRaw: s.Uncore.Snapshot(),
		Par:       s.par.stats,
		Host:      s.host,
	}
	for _, h := range s.Harts {
		r.HartStats = append(r.HartStats, h.Stats)
		r.Instructions += h.Stats.Instret
		r.L1I.Hits += h.L1I.Stats.Hits
		r.L1I.Misses += h.L1I.Stats.Misses
		r.L1D.Hits += h.L1D.Stats.Hits
		r.L1D.Misses += h.L1D.Stats.Misses
		r.L1D.Writebacks += h.L1D.Stats.Writebacks
		r.ExitCodes = append(r.ExitCodes, h.ExitCode)
		r.Consoles = append(r.Consoles, h.Console.String())
	}
	return r
}

// Report renders a human-readable summary.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles            %d\n", r.Cycles)
	fmt.Fprintf(&b, "instructions      %d\n", r.Instructions)
	fmt.Fprintf(&b, "IPC               %.3f\n", r.IPC())
	fmt.Fprintf(&b, "wall time         %v\n", r.WallTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "sim throughput    %.2f MIPS\n", r.MIPS())
	fmt.Fprintf(&b, "L1I               %d hits, %d misses (%.2f%% miss)\n",
		r.L1I.Hits, r.L1I.Misses, 100*r.L1I.MissRate())
	fmt.Fprintf(&b, "L1D               %d hits, %d misses (%.2f%% miss)\n",
		r.L1D.Hits, r.L1D.Misses, 100*r.L1D.MissRate())
	l2 := r.L2Stats()
	fmt.Fprintf(&b, "L2                %d hits, %d misses (%.2f%% miss)\n",
		l2.Hits, l2.Misses, 100*l2.MissRate())
	fmt.Fprintf(&b, "memory            %d line reads, %d line writes\n",
		r.MemReads(), r.MemWrites())
	fmt.Fprintf(&b, "dependency stalls %d cycles\n", r.TotalStalls())
	fmt.Fprintf(&b, "host work         %d hart visits, %d instructions run ahead, %d clock jumps over %d cycles\n",
		r.Host.Visits, r.Host.LookaheadInstr, r.Host.ClockJumps, r.Host.CyclesJumped)
	return b.String()
}

// UncoreReport renders the full per-unit counter dump, sorted.
func (r *Result) UncoreReport() string {
	var b strings.Builder
	for _, k := range evsim.SortedKeys(r.UncoreRaw) {
		fmt.Fprintf(&b, "%-28s %d\n", k, r.UncoreRaw[k])
	}
	return b.String()
}
