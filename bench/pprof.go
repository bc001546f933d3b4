package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A CPU profile is the only view from outside of where time goes inside
// System.Run. The standard library writes one (runtime/pprof) but cannot
// read it back, so this file decodes the few fields of the gzipped
// profile.proto message that attributing samples to packages needs:
//
//	Profile:  sample = 2, location = 4, function = 5, string_table = 6
//	Sample:   location_id = 1 (leaf first), value = 2 (last: cpu nanoseconds)
//	Location: id = 1, line = 4 (innermost inlined frame first)
//	Line:     function_id = 1
//	Function: id = 1, name = 2 (index into string_table)

var errProto = errors.New("pprof: malformed profile")

// protoField is one decoded field: a varint value or a length-delimited
// payload, by wire type.
type protoField struct {
	num  int
	val  uint64
	data []byte
}

// protoFields splits a message into its fields. Fixed-width fields are
// skipped; profile.proto has none.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			f.val, b = v, b[n:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
			continue
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
			continue
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// packedVarints decodes a repeated integer field, which a writer may emit
// packed (one payload) or one value at a time.
func packedVarints(f protoField, into []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(into, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		into, b = append(into, v), b[n:]
	}
	return into, nil
}

// leafWeights reads a gzipped CPU profile and returns the profile weight
// (CPU nanoseconds) attributed to each leaf function name.
func leafWeights(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	locFunc := map[uint64]uint64{}  // location id → innermost function id
	type sample struct {
		leaf   uint64
		weight float64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.data))
		case 5:
			fs, err := protoFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.val
				case 2:
					name = x.val
				}
			}
			funcName[id] = name
		case 4:
			fs, err := protoFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, x := range fs {
				switch {
				case x.num == 1:
					id = x.val
				case x.num == 4 && !seenLine:
					seenLine = true
					ls, err := protoFields(x.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn = l.val
						}
					}
				}
			}
			locFunc[id] = fn
		case 2:
			fs, err := protoFields(f.data)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					if locs, err = packedVarints(x, locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = packedVarints(x, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], float64(int64(vals[len(vals)-1]))})
			}
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.leaf]]
		name := "?"
		if idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.weight
	}
	return out, nil
}

// modulePrefix is the import path every simulator package starts with.
const modulePrefix = "github.com/coyote-sim/coyote/"

// selfLayers are the buckets a profile is split into; their shares sum
// to 100.
var selfLayers = []string{"cpu", "cache", "core", "evsim", "uncore", "mem", "runtime", "other"}

// layerOf names the bucket of a function: the simulator package it
// belongs to, the Go runtime (allocator, collector, scheduler, memmove),
// or other (kernels, asm, rcache, the benchmark itself, the rest of the
// standard library).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix+"internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range selfLayers[:6] {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// selfShares turns leaf weights into each layer's percentage of the
// profile.
func selfShares(weights map[string]float64) map[string]float64 {
	var total float64
	byLayer := map[string]float64{}
	for fn, w := range weights {
		byLayer[layerOf(fn)] += w
		total += w
	}
	out := map[string]float64{}
	for _, l := range selfLayers {
		if total > 0 {
			out[l] = 100 * byLayer[l] / total
		}
	}
	return out
}
