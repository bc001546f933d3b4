package rcache

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/cpu"
)

// Normalize returns a copy of r reduced to the deterministic result
// surface the cache stores and compares: WallTime (host wall-clock), Par
// (speculation counters, legitimately worker-count-dependent) and Host
// (run-loop work counters, engine- and stop-dependent) are zeroed;
// everything else — cycles, instructions, per-hart stats, cache
// and uncore counters, exit codes, consoles — is the committed
// simulation state the golden tests prove bit-identical across
// execution strategies. A cache hit therefore reports WallTime 0: the
// simulated time cost of a served point is genuinely zero.
func Normalize(r *core.Result) *core.Result {
	cp := Clone(r)
	cp.WallTime = 0
	cp.Par = core.ParStats{}
	cp.Host = core.HostStats{}
	return cp
}

// Clone deep-copies a Result so cached entries can never alias caller
// state (a caller mutating a returned Result must not poison the cache,
// and coalesced waiters on different goroutines each get their own).
func Clone(r *core.Result) *core.Result {
	cp := *r
	cp.HartStats = append([]cpu.Stats(nil), r.HartStats...)
	cp.ExitCodes = append([]uint64(nil), r.ExitCodes...)
	cp.Consoles = append([]string(nil), r.Consoles...)
	if r.UncoreRaw != nil {
		m := make(map[string]uint64, len(r.UncoreRaw))
		//coyote:mapiter-ok pure key→value copy into a fresh map; visit order is invisible
		for k, v := range r.UncoreRaw {
			m[k] = v
		}
		cp.UncoreRaw = m
	}
	return &cp
}

// marshalResult renders a Result as canonical JSON. encoding/json
// serializes struct fields in declaration order and map keys sorted, so
// equal results always produce equal bytes — the property the blob
// checksum, Equal and the round-trip fuzzer all lean on.
func marshalResult(r *core.Result) ([]byte, error) {
	return json.Marshal(r)
}

// Equal reports whether two results agree on the cached (deterministic)
// surface. Both sides are normalized first, so it can compare a fresh
// recomputation (with live WallTime/Par) against a stored entry.
func Equal(a, b *core.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	ab, aerr := marshalResult(Normalize(a))
	bb, berr := marshalResult(Normalize(b))
	if aerr != nil || berr != nil {
		return false
	}
	return bytes.Equal(ab, bb)
}

// Diff renders a short human-readable description of where two results
// diverge — the payload of the -cache-verify panic message.
func Diff(cached, fresh *core.Result) string {
	c, f := Normalize(cached), Normalize(fresh)
	if c.Cycles != f.Cycles {
		return fmt.Sprintf("cycles: cached %d, recomputed %d", c.Cycles, f.Cycles)
	}
	if c.Instructions != f.Instructions {
		return fmt.Sprintf("instructions: cached %d, recomputed %d", c.Instructions, f.Instructions)
	}
	cb, _ := marshalResult(c)
	fb, _ := marshalResult(f)
	n := 0
	for n < len(cb) && n < len(fb) && cb[n] == fb[n] {
		n++
	}
	lo := n - 40
	if lo < 0 {
		lo = 0
	}
	chi, fhi := n+40, n+40
	if chi > len(cb) {
		chi = len(cb)
	}
	if fhi > len(fb) {
		fhi = len(fb)
	}
	return fmt.Sprintf("first divergence at JSON byte %d:\n  cached    …%s…\n  recomputed …%s…",
		n, cb[lo:chi], fb[lo:fhi])
}
