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

// moduleSelfNS decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and returns CPU nanoseconds by layer. A sample's time
// goes to the Go runtime when its leaf frame is in the runtime (GC,
// memclr, duffcopy, the scheduler); otherwise to the nearest frame in
// a repro/internal/<module> package, so standard-library work (sorting,
// hashing, syscalls) counts against the module that asked for it.
// Time no module claims is "other".
func moduleSelfNS(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range profiledModules {
		known[m] = true
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		out[p.layerOf(s.locs, known)] += s.value
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	value int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

func (p *profile) layerOf(locs []uint64, known map[string]bool) string {
	for depth, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			name := ""
			if i := p.funcNames[fn]; i >= 0 && i < int64(len(p.strings)) {
				name = p.strings[i]
			}
			m := moduleOf(name)
			if m == "runtime" && depth == 0 {
				return "runtime"
			}
			if m != "" && m != "runtime" {
				if known[m] {
					return m
				}
				return "other"
			}
		}
	}
	return "other"
}

// moduleOf maps a profile function name to its layer: the package
// name under repro/internal/, "runtime" for the Go runtime, and "" for
// anything else.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "internal/runtime/syscall.") {
		return "" // a system call is charged to the module that made it
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	return ""
}

// parseProfile decodes the subset of profile.proto the attribution
// needs: samples (location ids and the cpu value), locations (their
// line entries' function ids), functions (name index) and the string
// table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var rawSamples [][]byte
	var sampleTypes [][]byte
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch {
		case num == 1 && wire == 2:
			sampleTypes = append(sampleTypes, data)
		case num == 2 && wire == 2:
			rawSamples = append(rawSamples, data)
		case num == 4 && wire == 2:
			return p.parseLocation(data)
		case num == 5 && wire == 2:
			return p.parseFunction(data)
		case num == 6 && wire == 2:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's values are (samples, cpu nanoseconds); take the
	// "cpu" column, falling back to the last.
	col := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		var typ int64 = -1
		if err := eachField(st, func(num, wire int, v uint64, _ []byte) error {
			if num == 1 && wire == 0 {
				typ = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if typ >= 0 && typ < int64(len(p.strings)) && p.strings[typ] == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	for _, data := range rawSamples {
		var s profSample
		var vals []int64
		err := eachField(data, func(num, wire int, v uint64, d []byte) error {
			switch num {
			case 1:
				s.locs = appendUvarints(s.locs, wire, v, d)
			case 2:
				for _, u := range appendUvarints(nil, wire, v, d) {
					vals = append(vals, int64(u))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if col < len(vals) {
			s.value = vals[col]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num, wire int, v uint64, d []byte) error {
		switch {
		case num == 1 && wire == 0:
			id = v
		case num == 4 && wire == 2:
			return eachField(d, func(n, w int, fv uint64, _ []byte) error {
				if n == 1 && w == 0 {
					fns = append(fns, fv)
				}
				return nil
			})
		}
		return nil
	})
	p.locFuncs[id] = fns
	return err
}

func (p *profile) parseFunction(b []byte) error {
	var id uint64
	var name int64 = -1
	err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
		if wire == 0 {
			switch num {
			case 1:
				id = v
			case 2:
				name = int64(v)
			}
		}
		return nil
	})
	p.funcNames[id] = name
	return err
}

// appendUvarints appends a repeated varint field given either as one
// unpacked value (wire 0) or a packed run (wire 2).
func appendUvarints(dst []uint64, wire int, v uint64, d []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(d) > 0 {
		u, n := binary.Uvarint(d)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		d = d[n:]
	}
	return dst
}

// eachField walks the top-level fields of one protobuf message.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
