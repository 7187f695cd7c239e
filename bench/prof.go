package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profFold folds CPU profiles (runtime/pprof's gzipped protobuf) into
// self time per layer. A sample is charged to the GC when any frame of
// its stack is garbage-collector work; otherwise to the layer of its
// innermost frame that belongs to one (so a runtime or syscall leaf is
// charged to the layer that called it), and to "other" when none does.
type profFold struct {
	self map[string]int64 // layer -> CPU ns
}

func newProfFold() *profFold { return &profFold{self: map[string]int64{}} }

// layerPrefixes maps function-name prefixes to layers, most specific
// first.
var layerPrefixes = []struct{ prefix, layer string }{
	{"repro/internal/sim.", "sim"},
	{"repro/internal/deps.", "deps"},
	{"repro/internal/mem.", "mem"},
	{"repro/internal/xfer.", "xfer"},
	{"repro/internal/sched", "sched"}, // sched and sched/versioning
	{"repro/internal/verprof.", "verprof"},
	{"repro/internal/rt.", "rt"},
	{"repro/internal/perfmodel.", "rt"},
	{"repro/internal/machine.", "rt"},
	{"repro/ompss.", "rt"},
	{"repro/internal/trace.", "trace"},
	{"repro/internal/chaos.", "chaos"},
	{"repro/internal/apps.", "apps"},
	{"repro/internal/exp.", "exp"},
	{"repro/internal/journal.", "journal"},
	{"repro/internal/sweepd.", "sweepd"},
	{"net/http.", "sweepd"}, // the only HTTP here is the sweepd control plane
	{"net.", "sweepd"},
	{"encoding/json.", "json"},
}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
	"runtime.gcDrain", "runtime.sweepone", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.(*sweepLocked).sweep",
}

func classify(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		for _, lp := range layerPrefixes {
			if strings.HasPrefix(f, lp.prefix) {
				return lp.layer
			}
		}
	}
	return "other"
}

// add folds one profile into the totals.
func (p *profFold) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				stack = append(stack, prof.strings[prof.funcName[fn]])
			}
		}
		p.self[classify(stack)] += s.ns
	}
	return nil
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]int64    // function -> string table index
	strings  []string
	nsIndex  int // which sample value holds CPU nanoseconds
}

type profSample struct {
	locs []uint64 // leaf first
	ns   int64
}

// parseProfile decodes the protobuf fields of profile.proto that hold
// samples, locations, functions and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}, nsIndex: 1}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var raws []rawSample
	var sampleTypes [][]byte
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, data)
		case 2: // sample
			var rs rawSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					rs.locs = appendPackedOrScalar(rs.locs, w, v, d)
				case 2:
					for _, x := range appendPackedOrScalar(nil, w, v, d) {
						rs.vals = append(rs.vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			raws = append(raws, rs)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's sample types are (samples, count) and (cpu,
	// nanoseconds); find the nanoseconds one by its unit.
	for i, st := range sampleTypes {
		_ = eachField(st, func(f, w int, v uint64, d []byte) error {
			if f == 2 && int(v) < len(p.strings) && p.strings[v] == "nanoseconds" {
				p.nsIndex = i
			}
			return nil
		})
	}
	for _, rs := range raws {
		if p.nsIndex < len(rs.vals) {
			p.samples = append(p.samples, profSample{rs.locs, rs.vals[p.nsIndex]})
		}
	}
	for id, n := range p.funcName {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, n, len(p.strings))
		}
	}
	return p, nil
}

func appendPackedOrScalar(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
