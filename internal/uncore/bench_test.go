package uncore

import (
	"fmt"
	"testing"

	"github.com/coyote-sim/coyote/internal/evsim"
)

// BenchmarkMSHRSaturated drives one bank with a two-entry MSHR table: each
// op submits n misses to n distinct lines at once and drains the engine,
// so n-2 requests wait while the table turns over two fills at a time.
// The work the waiting list does is one O(1) tick per cycle plus one scan
// of the list per cycle in which a fill or an accepted miss changed the
// bank; the n² request-cycles spent waiting are only counted. The metric
// to read is ns/waited-cycle: it falls as n grows (per-cycle polling held
// it constant at the cost of one bank lookup and one event), while
// ns/fill grows only with the length of the list a fill makes it scan.
func BenchmarkMSHRSaturated(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("waiting=%d", n), func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.BanksPerTile, cfg.MemCtrls, cfg.L2MSHRs = 1, 1, 2
			eng := evsim.NewEngine()
			u, err := New(cfg, eng)
			if err != nil {
				b.Fatal(err)
			}
			bank := u.Banks()[0]
			done := Done{F: func(uint64) {}}
			// Walk four times the bank's capacity so every request misses.
			lines := uint64(4 * cfg.L2.SizeBytes / cfg.L2.LineBytes)
			next := uint64(0)
			op := func() {
				for i := 0; i < n; i++ {
					u.Submit(Request{Addr: next << 6, Done: done})
					next = (next + 1) % lines
				}
				eng.Drain()
			}
			// Warm-up: an op's n port deliveries land in one calendar bucket,
			// a different one of the ring's 1024 each op, so grow them all to
			// n first; a few ops then size every pool and map.
			for c := uint64(0); c < 1024; c++ {
				for i := 0; i < n; i++ {
					eng.ScheduleArg(c, done.F, 0)
				}
			}
			eng.Drain()
			for i := 0; i < 8; i++ {
				op()
			}
			u.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(bank.mshrConflicts), "ns/waited-cycle")
			b.ReportMetric(ns/float64(bank.missesIssued), "ns/fill")
			b.ReportMetric(float64(bank.mshrConflicts)/float64(b.N), "waited-cycles/op")
		})
	}
}
