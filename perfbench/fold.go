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

// layers are the buckets a CPU profile is folded into, in report order: the
// simulator's packages that the benchmark attributes host time to, the Go
// runtime, and everything else.
var layers = []string{
	"sim", "machine", "loadgen", "cpu", "cache", "interconnect",
	"bwctrl", "dram", "rrbp", "manager", "runtime", "other",
}

// layerOfPkg maps a simulator import path to its layer. The request-shape
// packages load and workload fold into loadgen, the layer that drives them.
var layerOfPkg = map[string]string{
	"pivot/internal/sim":          "sim",
	"pivot/internal/machine":      "machine",
	"pivot/internal/loadgen":      "loadgen",
	"pivot/internal/load":         "loadgen",
	"pivot/internal/workload":     "loadgen",
	"pivot/internal/cpu":          "cpu",
	"pivot/internal/cache":        "cache",
	"pivot/internal/interconnect": "interconnect",
	"pivot/internal/bwctrl":       "bwctrl",
	"pivot/internal/dram":         "dram",
	"pivot/internal/rrbp":         "rrbp",
	"pivot/internal/manager":      "manager",
}

// pkgOf returns the import path of a symbolized Go function name such as
// "pivot/internal/dram.(*Controller).startActivates". Type arguments are
// cut first, since they may hold other packages' paths.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a function name to its layer; unknown packages go to "other".
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	if l, ok := layerOfPkg[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// layerFold is a CPU profile's flat (leaf-frame) time per layer.
type layerFold struct {
	NS      map[string]int64 // nanoseconds per layer
	TotalNS int64            // nanoseconds over all samples
	Samples int64
}

// add merges another fold into f.
func (f *layerFold) add(g layerFold) {
	if f.NS == nil {
		f.NS = make(map[string]int64)
	}
	for k, v := range g.NS {
		f.NS[k] += v
	}
	f.TotalNS += g.TotalNS
	f.Samples += g.Samples
}

// foldedNS is the time the layer buckets hold; a complete fold equals TotalNS.
func (f layerFold) foldedNS() int64 {
	var sum int64
	for _, v := range f.NS {
		sum += v
	}
	return sum
}

// foldProfile decodes a (possibly gzipped) pprof CPU profile and charges each
// sample's CPU time to the layer of its innermost frame, the flat attribution
// `go tool pprof -top` reports.
func foldProfile(data []byte) (layerFold, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return layerFold{}, err
	}
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return layerFold{}, errors.New("profile has no sample types")
	}
	fnName := make(map[uint64]string, len(p.functions))
	for _, f := range p.functions {
		fnName[f.id] = p.str(f.name)
	}
	leaf := make(map[uint64]string, len(p.locations))
	for _, l := range p.locations {
		// The first line is the innermost of any inlined calls.
		if len(l.funcIDs) > 0 {
			leaf[l.id] = fnName[l.funcIDs[0]]
		}
	}
	out := layerFold{NS: make(map[string]int64)}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return layerFold{}, fmt.Errorf("sample has %d values, want index %d", len(s.values), vi)
		}
		v := s.values[vi]
		fn := ""
		if len(s.locIDs) > 0 {
			fn = leaf[s.locIDs[0]]
		}
		out.NS[layerOf(fn)] += v
		out.TotalNS += v
		out.Samples++
	}
	return out, nil
}

// pprofData holds the fields of a pprof Profile message the fold needs.
type pprofData struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   []location
	functions   []function
	strings     []string
}

type sample struct {
	locIDs []uint64
	values []int64
}

type location struct {
	id      uint64
	funcIDs []uint64 // one per line, innermost first
}

type function struct {
	id   uint64
	name int64
}

func (p *pprofData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the profile.proto wire format, gunzipping first when
// the data carries the gzip magic.
func decodeProfile(data []byte) (*pprofData, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	p := &pprofData{}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locIDs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var l location
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1 && w == 0:
					l.id = v
				case n == 4 && w == 2: // line
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							l.funcIDs = append(l.funcIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, l)
			return err
		case 5: // function
			var f function
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					f.id = v
				case n == 2 && w == 0:
					f.name = int64(v)
				}
				return nil
			})
			p.functions = append(p.functions, f)
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling f with each field's number,
// wire type and either its integer value or its bytes.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
