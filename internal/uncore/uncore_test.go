package uncore

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/evsim"
	"github.com/coyote-sim/coyote/internal/san"
)

func testConfig() Config {
	cfg := DefaultConfig(2)
	cfg.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 2, LineBytes: 64, WriteBack: true}
	return cfg
}

func newTestUncore(t *testing.T, cfg Config) (*Uncore, *evsim.Engine) {
	t.Helper()
	eng := evsim.NewEngine()
	u, err := New(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return u, eng
}

// runUntil drains the engine and returns the completion time of a single
// tracked request.
func roundTrip(t *testing.T, u *Uncore, eng *evsim.Engine, tile int, addr uint64) evsim.Cycle {
	t.Helper()
	var doneAt evsim.Cycle
	fired := false
	u.Submit(Request{Tile: tile, Addr: addr, Done: FuncDone(func() {
		doneAt = eng.Now()
		fired = true
	})})
	eng.Drain()
	if !fired {
		t.Fatal("request never completed")
	}
	return doneAt
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(4)
	bad.BanksPerTile = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two banks accepted")
	}
	bad = DefaultConfig(4)
	bad.MemCtrls = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MCs accepted")
	}
	bad = DefaultConfig(4)
	bad.L2MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
}

func TestMissThenHitLatency(t *testing.T) {
	cfg := testConfig()
	u, eng := newTestUncore(t, cfg)
	base := uint64(0x10000)

	// Cold miss: full path core→bank→MC→bank→core.
	missTime := roundTrip(t, u, eng, 0, base)
	// The same line again: L2 hit, much quicker.
	start := eng.Now()
	hitTime := roundTrip(t, u, eng, 0, base) - start

	if hitTime >= missTime {
		t.Errorf("hit (%d) should be faster than cold miss (%d)", hitTime, missTime)
	}
	// Hit latency bound: two traversals + lookup.
	maxHit := cfg.L2HitLatency + 2*cfg.NoCLatency + 2*cfg.LocalLatency
	if hitTime > maxHit {
		t.Errorf("hit latency %d exceeds bound %d", hitTime, maxHit)
	}
	if missTime < cfg.MemLatency {
		t.Errorf("miss latency %d below DRAM latency %d", missTime, cfg.MemLatency)
	}
}

func TestSetInterleaveSpreadsLines(t *testing.T) {
	cfg := testConfig()
	cfg.Mapping = SetInterleave
	u, _ := newTestUncore(t, cfg)
	lb := uint64(cfg.L2.LineBytes)
	seen := map[int]bool{}
	for i := uint64(0); i < uint64(len(u.banks)); i++ {
		seen[u.bankFor(0, i*lb).ID()] = true
	}
	if len(seen) != len(u.banks) {
		t.Errorf("consecutive lines hit %d banks, want %d", len(seen), len(u.banks))
	}
}

func TestPageToBankKeepsPagesTogether(t *testing.T) {
	cfg := testConfig()
	cfg.Mapping = PageToBank
	u, _ := newTestUncore(t, cfg)
	page := uint64(0x42000)
	first := u.bankFor(0, page).ID()
	for off := uint64(0); off < 4096; off += 64 {
		if got := u.bankFor(0, page+off).ID(); got != first {
			t.Fatalf("line %#x mapped to bank %d, want %d", page+off, got, first)
		}
	}
	// The next page should (eventually) map elsewhere.
	other := false
	for p := uint64(1); p < 8; p++ {
		if u.bankFor(0, page+p*4096).ID() != first {
			other = true
		}
	}
	if !other {
		t.Error("all pages mapped to one bank")
	}
}

func TestPrivateL2RestrictsToTileBanks(t *testing.T) {
	cfg := testConfig()
	cfg.L2Shared = false
	u, _ := newTestUncore(t, cfg)
	for tile := 0; tile < cfg.Tiles; tile++ {
		for i := uint64(0); i < 64; i++ {
			b := u.bankFor(tile, i*64)
			if b.Tile() != tile {
				t.Fatalf("tile %d request mapped to bank of tile %d", tile, b.Tile())
			}
		}
	}
}

func TestSharedVsPrivateLatency(t *testing.T) {
	// In shared mode a tile-0 request can land on a tile-1 bank (remote
	// hop); in private mode it never does.
	cfgShared := testConfig()
	uShared, engShared := newTestUncore(t, cfgShared)
	cfgPriv := testConfig()
	cfgPriv.L2Shared = false
	uPriv, engPriv := newTestUncore(t, cfgPriv)

	// Find a line that lands remote under shared mapping.
	lb := uint64(cfgShared.L2.LineBytes)
	var remoteLine uint64
	for i := uint64(0); ; i++ {
		if uShared.bankFor(0, i*lb).Tile() != 0 {
			remoteLine = i * lb
			break
		}
	}
	// Warm both, then compare hit latencies.
	roundTrip(t, uShared, engShared, 0, remoteLine)
	roundTrip(t, uPriv, engPriv, 0, remoteLine)
	s0 := engShared.Now()
	sharedHit := roundTrip(t, uShared, engShared, 0, remoteLine) - s0
	p0 := engPriv.Now()
	privHit := roundTrip(t, uPriv, engPriv, 0, remoteLine) - p0
	if sharedHit <= privHit {
		t.Errorf("remote shared hit (%d) should be slower than private hit (%d)",
			sharedHit, privHit)
	}
}

func TestMSHRMergesSameLine(t *testing.T) {
	cfg := testConfig()
	u, eng := newTestUncore(t, cfg)
	done := 0
	for i := 0; i < 4; i++ {
		u.Submit(Request{Tile: 0, Addr: 0x1000, Done: FuncDone(func() { done++ })})
	}
	eng.Drain()
	if done != 4 {
		t.Fatalf("completions = %d, want 4", done)
	}
	var merges, issued uint64
	for _, b := range u.Banks() {
		merges += b.mshrMerges
		issued += b.missesIssued
	}
	if issued != 1 {
		t.Errorf("misses issued = %d, want 1 (merged)", issued)
	}
	if merges != 3 {
		t.Errorf("merges = %d, want 3", merges)
	}
	var mcReads uint64
	for _, mc := range u.MemCtrls() {
		mcReads += mc.Reads()
	}
	if mcReads != 1 {
		t.Errorf("MC reads = %d, want 1", mcReads)
	}
}

func TestMSHRConflictBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.L2MSHRs = 2
	cfg.Tiles = 1
	cfg.BanksPerTile = 1
	cfg.MemCtrls = 1
	u, eng := newTestUncore(t, cfg)
	done := 0
	// 8 distinct lines → 8 misses into a 2-entry MSHR.
	const n = 8
	for i := uint64(0); i < n; i++ {
		u.Submit(Request{Tile: 0, Addr: i * 64, Done: FuncDone(func() { done++ })})
	}
	// Step a cycle at a time and count, from outside, the request-cycles
	// spent waiting: a request that has arrived and is not yet accepted at
	// the end of a cycle was examined and refused in it.
	b := u.Banks()[0]
	var waited uint64
	for eng.Pending() > 0 {
		eng.AdvanceTo(eng.Now() + 1)
		if eng.Now() >= cfg.LocalLatency && b.missesIssued < n {
			waited += n - b.missesIssued
		}
		// A reader between ticks sees every examination so far, whether the
		// waiting list ran it or skipped it and owes the count.
		if got := b.Counters()["mshr_conflicts"]; got != waited {
			t.Fatalf("cycle %d: mshr_conflicts = %d, want %d", eng.Now(), got, waited)
		}
	}
	if done != n {
		t.Fatalf("completions = %d, want %d", done, n)
	}
	if waited == 0 {
		t.Fatal("expected requests to wait under pressure")
	}
	// mshr_conflicts counts examinations, one per waiting request per
	// cycle: the sum over requests of cycles waited.
	if got := b.mshrConflicts; got != waited {
		t.Errorf("mshr_conflicts = %d, want %d (sum over requests of cycles waited)", got, waited)
	}
	if got := b.Accesses(); got != n+waited {
		t.Errorf("accesses = %d, want %d requests + %d refused examinations", got, n, waited)
	}
	if got := b.CacheStats().Misses; got != n+waited {
		t.Errorf("tag misses = %d, want %d", got, n+waited)
	}
	if len(u.waiting) != 0 || u.ticking {
		t.Errorf("waiting list not drained: %d waiting, ticking=%v", len(u.waiting), u.ticking)
	}
}

func TestWritebackReachesMemory(t *testing.T) {
	cfg := testConfig()
	u, eng := newTestUncore(t, cfg)
	u.Submit(Request{Tile: 0, Addr: 0x2000, Write: true})
	eng.Drain()
	var writes, reads uint64
	for _, b := range u.Banks() {
		writes += b.writes
	}
	for _, mc := range u.MemCtrls() {
		reads += mc.Reads()
	}
	if writes != 1 {
		t.Errorf("bank writes = %d", writes)
	}
	// Write-allocate: the line is fetched from memory once.
	if reads != 1 {
		t.Errorf("MC reads = %d, want 1 (write-allocate fetch)", reads)
	}
}

func TestMemBandwidthSerialisesBursts(t *testing.T) {
	cfg := testConfig()
	cfg.Tiles = 1
	cfg.BanksPerTile = 1
	cfg.MemCtrls = 1
	cfg.MemBytesPerCyc = 8 // 8 cycles occupancy per 64B line
	cfg.L2MSHRs = 64
	u, eng := newTestUncore(t, cfg)
	n := 16
	var last evsim.Cycle
	doneCount := 0
	for i := 0; i < n; i++ {
		addr := uint64(i) * 64
		u.Submit(Request{Tile: 0, Addr: addr, Done: FuncDone(func() {
			doneCount++
			last = eng.Now()
		})})
	}
	eng.Drain()
	if doneCount != n {
		t.Fatalf("done = %d", doneCount)
	}
	// With 8 cycles per line, 16 lines need ≥ 128 cycles of channel time.
	if last < 128 {
		t.Errorf("burst finished at %d, bandwidth not enforced", last)
	}
	if u.MemCtrls()[0].stallCycle == 0 {
		t.Error("expected queueing at the memory controller")
	}
}

func TestNoCLatencyScalesRoundTrip(t *testing.T) {
	slowCfg := testConfig()
	slowCfg.NoCLatency = 64
	fast, engF := newTestUncore(t, testConfig())
	slow, engS := newTestUncore(t, slowCfg)
	tf := roundTrip(t, fast, engF, 0, 0x3000)
	ts := roundTrip(t, slow, engS, 0, 0x3000)
	if ts <= tf {
		t.Errorf("slow NoC round trip (%d) should exceed fast (%d)", ts, tf)
	}
}

func TestSnapshotHasAllUnits(t *testing.T) {
	cfg := testConfig()
	u, eng := newTestUncore(t, cfg)
	roundTrip(t, u, eng, 0, 0x1000)
	snap := u.Snapshot()
	wantUnits := cfg.Tiles*cfg.BanksPerTile + cfg.MemCtrls + 2 // + noc + mcpu
	units := map[string]bool{}
	for _, k := range evsim.SortedKeys(snap) {
		for i := 0; i < len(k); i++ {
			if k[i] == '.' {
				units[k[:i]] = true
				break
			}
		}
	}
	if len(units) != wantUnits {
		t.Errorf("snapshot covers %d units, want %d: %v", len(units), wantUnits, units)
	}
}

func TestParseMapping(t *testing.T) {
	if p, err := ParseMapping("page-to-bank"); err != nil || p != PageToBank {
		t.Errorf("ParseMapping failed: %v %v", p, err)
	}
	if p, err := ParseMapping(""); err != nil || p != SetInterleave {
		t.Errorf("default mapping: %v %v", p, err)
	}
	if _, err := ParseMapping("bogus"); err == nil {
		t.Error("bogus mapping accepted")
	}
	if SetInterleave.String() != "set-interleave" || PageToBank.String() != "page-to-bank" {
		t.Error("mapping names wrong")
	}
}

// Functional warming changes a bank's tags without passing through the
// MSHR machinery; a request left waiting by the timed window must still
// be looked at again, and find the line warming brought in.
func TestWarmAccessWakesWaitingRequest(t *testing.T) {
	cfg := testConfig()
	cfg.L2MSHRs = 1
	cfg.Tiles = 1
	cfg.BanksPerTile = 1
	cfg.MemCtrls = 1
	u, eng := newTestUncore(t, cfg)
	var firstAt, secondAt evsim.Cycle
	u.Submit(Request{Tile: 0, Addr: 0x000, Done: FuncDone(func() { firstAt = eng.Now() })})
	u.Submit(Request{Tile: 0, Addr: 0x400, Done: FuncDone(func() { secondAt = eng.Now() })})
	eng.AdvanceTo(cfg.LocalLatency + 5)
	if u.Waiting() != 1 {
		t.Fatalf("test premise broken: %d requests waiting, want 1", u.Waiting())
	}
	u.WarmAccess(0, 0x400, false)
	warmedAt := eng.Now()
	eng.Drain()
	// Examined at the next tick, it hits: lookup plus the return hop.
	if want := warmedAt + 1 + cfg.L2HitLatency + cfg.LocalLatency; secondAt != want {
		t.Errorf("waiting request completed at cycle %d, want %d (a hit one cycle after warming)", secondAt, want)
	}
	if secondAt >= firstAt {
		t.Errorf("waiting request (cycle %d) should not have waited for the in-flight miss (cycle %d)", secondAt, firstAt)
	}
	if got, want := u.Banks()[0].mshrConflicts, uint64(warmedAt+1-cfg.LocalLatency); got != want {
		t.Errorf("mshr_conflicts = %d, want %d: one per cycle waited", got, want)
	}
}

// The waiting list keeps the order per-cycle retry events would run in: a
// request refused ahead of its cycle's tick goes to the head, behind the
// others of that cycle; one refused after the tick goes to the tail; one
// refused while the engine catches up on a cycle joins the tail a cycle
// later, behind that cycle's after-tick arrivals.
func TestWaitingListOrder(t *testing.T) {
	if san.Enabled {
		t.Skip("parks requests no bank refused; the sanitizer examines them and rightly objects")
	}
	cfg := testConfig()
	u, eng := newTestUncore(t, cfg)
	b := u.Banks()[0]
	park := func(names ...uint64) func() {
		return func() {
			for _, n := range names {
				u.park(b, Request{Addr: n})
			}
		}
	}
	const A, B, C, D, E, F, G = 1, 2, 3, 4, 5, 6, 7
	eng.Schedule(2, park(C, D)) // queued first: runs ahead of cycle 2's tick
	eng.Schedule(1, func() {
		park(A, B)()             // first refusals: they start the ticks
		eng.Schedule(1, park(E)) // queued after the tick of cycle 2 was
	})
	eng.AdvanceTo(2)
	eng.Schedule(1, park(G)) // cycle 3, after its tick
	eng.Schedule(0, park(F)) // cycle 2 again: the engine is past its sweep
	eng.AdvanceTo(3)
	var got []uint64
	for _, w := range u.waiting {
		got = append(got, w.req.Addr)
	}
	want := []uint64{C, D, A, B, E, G, F}
	if len(got) != len(want) {
		t.Fatalf("waiting list %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("waiting list %v, want %v", got, want)
		}
	}
	if len(u.late) != 0 || !u.ticking {
		t.Errorf("late=%d ticking=%v, want 0 and true", len(u.late), u.ticking)
	}
}

// A checkpoint taken while requests wait — on the list and, with
// zero-latency hops at cycle 0, still parked from the catch-up — restores
// to the same bytes and resumes to the same completions and counters.
func TestCheckpointWaitingRequests(t *testing.T) {
	type rig struct {
		u      *Uncore
		eng    *evsim.Engine
		doneAt []evsim.Cycle
		done   Done
	}
	for _, hop := range []evsim.Cycle{0, 2} {
		cfg := testConfig()
		cfg.Tiles, cfg.BanksPerTile, cfg.MemCtrls, cfg.L2MSHRs = 1, 1, 1, 1
		cfg.LocalLatency = hop
		build := func() *rig {
			g := &rig{eng: evsim.NewEngine()}
			g.done.F = func(uint64) { g.doneAt = append(g.doneAt, g.eng.Now()) }
			g.done.H = g.eng.RegisterFn(g.done.F)
			var err error
			if g.u, err = New(cfg, g.eng); err != nil {
				t.Fatal(err)
			}
			return g
		}
		submit := func(g *rig) {
			for i := uint64(0); i < 4; i++ {
				g.u.Submit(Request{Addr: i << 10, Done: g.done})
			}
		}
		save := func(g *rig) []byte {
			var w ckpt.Writer
			if err := g.eng.Checkpoint(&w); err != nil {
				t.Fatal(err)
			}
			if err := g.u.Checkpoint(&w); err != nil {
				t.Fatal(err)
			}
			return w.Bytes()
		}
		ref := build()
		submit(ref)
		ref.eng.Drain()

		stopped := build()
		submit(stopped)
		stopped.eng.AdvanceTo(hop)
		if u := stopped.u; hop == 0 && len(u.late) != 3 || hop != 0 && len(u.waiting) != 3 {
			t.Fatalf("hop %d: test premise broken: %d waiting, %d late", hop, len(u.waiting), len(u.late))
		}
		img := save(stopped)

		resumed := build()
		r := ckpt.NewReader(img)
		if err := resumed.eng.Restore(r); err != nil {
			t.Fatal(err)
		}
		if err := resumed.u.Restore(r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(save(resumed), img) {
			t.Errorf("hop %d: restore → re-checkpoint is not byte-identical", hop)
		}
		resumed.eng.Drain()
		if fmt.Sprint(resumed.doneAt) != fmt.Sprint(ref.doneAt) || len(ref.doneAt) != 4 {
			t.Errorf("hop %d: restored run completes at %v, uninterrupted at %v", hop, resumed.doneAt, ref.doneAt)
		}
		if got, want := fmt.Sprint(resumed.u.Snapshot()), fmt.Sprint(ref.u.Snapshot()); got != want {
			t.Errorf("hop %d: restored counters\n%s\nuninterrupted\n%s", hop, got, want)
		}
	}
}
