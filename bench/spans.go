package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call the benchmark made into a layer's public API.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	Point   string  `json:"point,omitempty"`
	StartUS float64 `json:"start_us"` // since the tracer was created
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // ids of the open spans, innermost last
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

func (t *tracer) now() float64 {
	return float64(time.Since(t.t0).Nanoseconds()) / 1e3
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, point string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Point: point, StartUS: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndUS = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// total sums the durations, in seconds, of the spans called name among
// spans[from:to].
func (t *tracer) total(name string, from, to int) float64 {
	var us float64
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			us += s.EndUS - s.StartUS
		}
	}
	return us / 1e6
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
