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

// CPU-profile attribution. A sample is charged to the innermost frame
// that belongs to a rocc/internal package, so time in math.Log counts to
// rng and time in mallocgc counts to whichever module allocated; samples
// with no repository frame at all (GC workers, the scheduler) count to
// runtime. Only the fields of profile.proto this needs are decoded:
// samples, locations with their (inlined) lines, functions and the string
// table.

// modules lists the layers the report names, in report order. Repository
// packages outside the list (scenario, par, doe, report, ...) count to
// "other"; the shares over all entries sum to one.
var modules = []string{
	"des", "resources", "procs", "forward", "rng", "stats", "obs", "prov",
	"faults", "core", "dist", "other", "runtime",
}

const repoPrefix = "rocc/internal/"

// moduleOf maps a fully qualified function name to its report module, or
// "" when the function is outside the repository.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	// The package path ends at the first '.', since no package path
	// below rocc/internal contains one.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "obs/prov":
		return "prov"
	case "obs/live":
		return "obs"
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return "other"
}

// cpuByModule accumulates CPU nanoseconds per module.
type cpuByModule map[string]int64

func (c cpuByModule) add(o cpuByModule) {
	for k, v := range o {
		c[k] += v
	}
}

func (c cpuByModule) total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// attributeProfile decodes a gzipped pprof CPU profile and charges every
// sample's CPU time to a module.
func attributeProfile(data []byte) (cpuByModule, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	// The cpu/nanoseconds value; Go CPU profiles put it second, after the
	// sample count.
	vi := -1
	for i, u := range p.sampleUnits {
		if p.str(u) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := cpuByModule{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		mod := "runtime"
	frames:
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				if m := moduleOf(p.str(p.functions[fid])); m != "" {
					mod = m
					break frames
				}
			}
		}
		out[mod] += s.values[vi]
	}
	return out, nil
}

type sample struct {
	locations []uint64
	values    []int64
}

type profile struct {
	sampleUnits []int64 // string index of each sample value's unit
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var unit int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unit = int64(v)
				}
				return nil
			})
			p.sampleUnits = append(p.sampleUnits, unit)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one value
// per field occurrence, or packed into a length-delimited payload.
func varints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
