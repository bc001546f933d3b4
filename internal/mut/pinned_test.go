package mut

import (
	"os"
	"testing"
)

// TestPinnedCorpus replays the migrated hand-rolled mutants — the lint
// suite's historical keytaint/specwrite/globalmut/statecheck/portproto
// seeds and the runtime sanitizer's shadow-maintenance faults — through
// the full oracle cascade, and holds each to its contract: killed by
// EXACTLY its designated layer (every earlier layer must pass it), with
// the pinned detail substring in the kill message. This is the
// regression net for the oracle stack itself: if a lint lane or the
// coyotesan workload loses a kill, the corpus fails before any real
// mutation run would quietly report a weaker score.
//
// The full replay runs nine cascades end to end (~8 minutes on one
// core), which would put this package alone near go test's default
// 10-minute timeout — so it is opt-in: `make mut-pinned` (or the CI
// coyotemut lane) sets COYOTE_MUT_PINNED=1 with an explicit -timeout.
func TestPinnedCorpus(t *testing.T) {
	if os.Getenv("COYOTE_MUT_PINNED") == "" {
		t.Skip("set COYOTE_MUT_PINNED=1 (make mut-pinned) to replay the pinned corpus through the full cascade")
	}
	e := testEngine(t)
	orc := NewOracles(e)
	pins, err := LoadPinned("testdata/pinned")
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) < 8 {
		t.Fatalf("pinned corpus has %d entries, want >= 8 — did a corpus file go missing?", len(pins))
	}
	layers := map[string]int{}
	for _, p := range pins {
		layers[p.Layer]++
	}
	if layers["lint"] == 0 || layers["san"] == 0 {
		t.Fatalf("corpus must pin both the lint and san layers, got %v", layers)
	}
	for _, p := range pins {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := AdjudicatePinned(e, orc, p, t.Logf); err != nil {
				t.Fatal(err)
			}
		})
	}
}
