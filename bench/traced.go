package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	coyote "github.com/coyote-sim/coyote"
)

// counts are a workload's exact simulated event counts, summed over one
// plain detailed run of every point with the System in hand. They repeat
// exactly for a fixed seed.
type counts struct {
	instr, cycles, stallCycles   uint64
	l1dAccesses, l1dMisses       uint64
	l1iAccesses, l1iMisses       uint64
	l1Writebacks, vecElems       uint64
	events                       uint64
	l2Hits, l2Misses             uint64
	nocMsgs, memReads, memWrites uint64
	gatherLines                  uint64
	cpi                          []float64 // per point
}

// add folds one finished detailed run into the counts.
func (c *counts) add(sys *coyote.System, res *coyote.Result) {
	c.instr += res.Instructions
	c.cycles += res.Cycles
	c.stallCycles += res.TotalStalls()
	c.l1dAccesses += res.L1D.Hits + res.L1D.Misses
	c.l1dMisses += res.L1D.Misses
	c.l1iAccesses += res.L1I.Hits + res.L1I.Misses
	c.l1iMisses += res.L1I.Misses
	c.l1Writebacks += res.L1D.Writebacks
	for _, h := range res.HartStats {
		c.vecElems += h.ElemAccesses
	}
	c.events += sys.Eng.Executed()
	l2 := res.L2Stats()
	c.l2Hits += l2.Hits
	c.l2Misses += l2.Misses
	c.nocMsgs += res.UncoreRaw["noc.local_msgs"] + res.UncoreRaw["noc.remote_msgs"]
	c.memReads += res.MemReads()
	c.memWrites += res.MemWrites()
	c.gatherLines += res.UncoreRaw["mcpu.lines"]
	c.cpi = append(c.cpi, float64(res.Cycles)/float64(res.Instructions))
}

// referencePass runs every point once in plain detailed mode, spanned,
// to take the counts. For detailed points it doubles as the warm-up
// pass; for sampled points it is the full detailed run their CPI
// estimate is judged against; and for cached and sampled points it is
// the only place preparation and verification can be timed apart from
// the simulation.
func (r *runner) referencePass() (*counts, error) {
	defer collectorOff()()
	id := r.tr.begin("reference", "")
	defer r.tr.end(id)
	c := &counts{}
	for i, pt := range r.pts {
		sys, err := r.prepare(i, pt)
		if err != nil {
			return nil, err
		}
		r.attempted++
		// Outside detailed mode the outcome recorded here is overwritten
		// by the mode's own warm-up pass, which refSet leaves due.
		err = r.wholeRun(i, pt, sys, func(res *coyote.Result) { c.add(sys, res) })
		if len(c.cpi) <= i {
			c.cpi = append(c.cpi, math.NaN())
		}
		r.finish(i, pt, sys, err)
		runtime.GC()
	}
	r.refSet = r.w.mode == detailed
	return c, nil
}

// tracedPasses is how many plain and how many traced passes a traced run
// takes, alternating, after the warm-up pass.
const tracedPasses = 3

// profile is what the alternating plain and traced passes produce.
type profile struct {
	plain, traced      samples            // the passes' wall units
	weights            map[string]float64 // CPU nanoseconds per leaf function, traced passes
	mallocs, allocated uint64             // heap objects and bytes, traced passes
}

// profiledPasses takes tracedPasses plain passes and as many traced ones,
// alternating so that both see the same host. A traced pass records
// spans to tr and runs under the CPU profiler.
func (r *runner) profiledPasses(tr *tracer) (*profile, error) {
	p := &profile{weights: map[string]float64{}}
	var buf bytes.Buffer
	var before, after runtime.MemStats
	for i := 0; i < tracedPasses; i++ {
		r.tr, r.wall = nil, p.plain
		if err := r.pass(); err != nil {
			return nil, err
		}
		p.plain = r.wall

		r.tr, r.wall = tr, p.traced
		buf.Reset()
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		err := r.pass()
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		p.traced = r.wall
		p.mallocs += after.Mallocs - before.Mallocs
		p.allocated += after.TotalAlloc - before.TotalAlloc
		w, err := leafWeights(buf.Bytes())
		if err != nil {
			return nil, err
		}
		for fn, v := range w {
			p.weights[fn] += v
		}
	}
	return p, nil
}

// runTraced is the traced run: exact counts, spans around every call
// into the simulator, a CPU profile split by package, the unit cost of
// every layer, and what the unit costs leave unexplained.
func runTraced(r *runner, opt options, info map[string]any) (map[string]metric, error) {
	tr := r.tr
	cnt, err := r.referencePass()
	if err != nil {
		return nil, err
	}
	refSpans := len(tr.spans)
	if !r.refSet {
		r.tr = nil
		if err := r.pass(); err != nil { // the mode's own warm-up
			return nil, err
		}
	}
	prof, err := r.profiledPasses(tr)
	if err != nil {
		return nil, err
	}
	if err := r.warmCheck(); err != nil {
		return nil, err
	}
	b := fullBencher
	if opt.tiny {
		b = tinyBencher
	}
	m, err := layerCosts(&costs{b: b, tiny: opt.tiny, dir: r.dir, tr: tr})
	if err != nil {
		return nil, err
	}

	// Spans, per traced pass. A cached or sampled call cannot be split
	// from outside, so its preparation and verification are taken from
	// the reference pass's identical calls and subtracted.
	perPass := func(name string) float64 { return tr.total(name, refSpans, len(tr.spans)) / tracedPasses }
	prepare, verify, run := perPass("prepare"), perPass("VerifyKernel"), perPass("RunTo")
	if r.w.mode != detailed {
		prepare, verify = tr.total("prepare", 0, refSpans), tr.total("VerifyKernel", 0, refSpans)
		run = perPass("RunKernelCached") + perPass("SampleKernel") - prepare - verify
	}
	m["span.prepare_s"] = metric{prepare, "s"}
	m["span.run_s"] = metric{run, "s"}
	m["span.verify_s"] = metric{verify, "s"}
	m["trace.overhead_pct"] = metric{100 * (prof.traced.floor() - prof.plain.floor()) / prof.plain.floor(), "%"}

	cnt.metrics(m)
	detailedShare := sampleMetrics(m, r.sampled, cnt.cpi)

	shares := selfShares(prof.weights)
	for _, l := range selfLayers {
		m[l+".self_pct"] = metric{shares[l], "%"}
	}
	instr := float64(r.totals().instr) * tracedPasses
	m["runtime.allocs_per_kinstr"] = metric{1e3 * float64(prof.mallocs) / instr, "1/kinstr"}
	m["runtime.alloc_mb"] = metric{float64(prof.allocated) / 1e6 / tracedPasses, "MB"}

	explained := explainedSeconds(m, cnt, detailedShare)
	m["trace.unattributed_pct"] = metric{100 * (run - explained) / run, "%"}

	spans := filepath.Join(opt.out, r.w.name+".spans.json")
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	info["passes"] = tracedPasses
	info["explained_s"] = explained
	info["top_functions"] = topFunctions(prof.weights, 12)
	info["spans"] = spans
	return m, nil
}

// metrics adds the exact counts.
func (c *counts) metrics(m map[string]metric) {
	pct := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	m["cpu.instr"] = metric{float64(c.instr), "count"}
	m["cpu.stall_cycles"] = metric{float64(c.stallCycles), "count"}
	m["cache.l1d_accesses"] = metric{float64(c.l1dAccesses), "count"}
	m["cache.l1d_miss_pct"] = metric{pct(c.l1dMisses, c.l1dAccesses), "%"}
	m["cache.l1i_miss_pct"] = metric{pct(c.l1iMisses, c.l1iAccesses), "%"}
	m["core.cycles"] = metric{float64(c.cycles), "count"}
	m["core.ipc"] = metric{float64(c.instr) / float64(c.cycles), "instr/cycle"}
	m["evsim.events"] = metric{float64(c.events), "count"}
	m["evsim.events_per_instr"] = metric{float64(c.events) / float64(c.instr), "1/instr"}
	m["uncore.l2_accesses"] = metric{float64(c.l2Hits + c.l2Misses), "count"}
	m["uncore.l2_miss_pct"] = metric{pct(c.l2Misses, c.l2Hits+c.l2Misses), "%"}
	m["uncore.noc_msgs"] = metric{float64(c.nocMsgs), "count"}
	m["uncore.mem_reads"] = metric{float64(c.memReads), "count"}
	m["uncore.mem_writes"] = metric{float64(c.memWrites), "count"}
}

// sampleMetrics adds the sampling metrics and returns the share of
// instructions simulated in detail. fullCPI is each point's CPI from the
// reference pass's full detailed run. A workload that is not sampled is
// all detail, with no estimate and so no error.
func sampleMetrics(m map[string]metric, sampled []*coyote.SampleResult, fullCPI []float64) float64 {
	share := 1.0
	var intervals, ciHalf, cpiErr float64
	var det, tot uint64
	n := 0
	for i, sr := range sampled {
		if sr == nil || math.IsNaN(fullCPI[i]) {
			continue // already counted as failed
		}
		n++
		det += sr.DetailedInstret
		tot += sr.TotalInstret
		intervals += float64(len(sr.Intervals))
		ciHalf += 100 * sr.CPIError / sr.MeanCPI
		cpiErr += 100 * math.Abs(sr.MeanCPI-fullCPI[i]) / fullCPI[i]
	}
	if n > 0 {
		share = float64(det) / float64(tot)
		ciHalf /= float64(n)
		cpiErr /= float64(n)
	}
	m["sample.detailed_pct"] = metric{100 * share, "%"}
	m["sample.intervals"] = metric{intervals, "count"}
	m["sample.ci_half_pct"] = metric{ciHalf, "%"}
	m["sample.cpi_err_pct"] = metric{cpiErr, "%"}
	return share
}

// explainedSeconds is Σ unit cost × exact count: what one pass over the
// workload should cost if each layer cost what it costs in isolation.
// The orchestrator's own loop has no per-operation unit cost, so it is
// left to the remainder (trace.unattributed_pct), which core.self_pct
// checks from the other side.
//
// In detailed mode an instruction costs the block engine's rate; each
// L1D access a hit, each L1 miss the miss premium; each L2 hit and miss
// one Submit→Done round trip (its events included); each line written to
// memory the dirty-eviction premium; each gathered line one descriptor
// line. In functional mode (the share of a sampled workload that is
// fast-forwarded) an instruction costs the functional engine's rate,
// each L1D access a tag-only warm access and each L1 miss or writeback
// one uncore warm access.
func explainedSeconds(m map[string]metric, c *counts, detailedShare float64) float64 {
	v := func(name string) float64 { return m[name].Value }
	l1Misses := float64(c.l1dMisses + c.l1iMisses)
	detailedNS := float64(c.instr)*v("cpu.block_ns_per_instr") +
		float64(c.l1dAccesses)*v("cache.hit_ns") +
		l1Misses*math.Max(0, v("cache.miss_ns")-v("cache.hit_ns")) +
		float64(c.l2Hits)*v("uncore.l2hit_ns") +
		float64(c.l2Misses)*v("uncore.l2miss_ns") +
		float64(c.memWrites)*math.Max(0, v("uncore.writeback_ns")-v("uncore.l2miss_ns")) +
		float64(c.gatherLines)*v("uncore.gather_line_ns")
	functionalNS := float64(c.instr)*v("cpu.func_ns_per_instr") +
		float64(c.l1dAccesses)*v("cache.warm_ns") +
		(l1Misses+float64(c.l1Writebacks))*v("uncore.warm_ns")
	return (detailedShare*detailedNS + (1-detailedShare)*functionalNS) / 1e9
}

// topFunctions lists the n heaviest leaf functions of the profile with
// their share, for the run's record.
func topFunctions(weights map[string]float64, n int) []string {
	type fw struct {
		fn string
		w  float64
	}
	var all []fw
	var total float64
	for fn, w := range weights {
		all = append(all, fw{fn, w})
		total += w
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].fn < all[j].fn
	})
	var out []string
	for i := 0; i < len(all) && i < n; i++ {
		out = append(out, fmt.Sprintf("%5.1f%% %s", 100*all[i].w/total, strings.TrimPrefix(all[i].fn, modulePrefix)))
	}
	return out
}
