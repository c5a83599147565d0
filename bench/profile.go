package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A reader for the protobuf CPU profiles runtime/pprof writes (the
// profile.proto format of github.com/google/pprof), decoding only what
// layer attribution needs. It is standard library only: the module
// depends on nothing outside it.

// profile is a decoded CPU profile.
type profile struct {
	// Samples carry their stacks leaf first, each location expanded into
	// its function names innermost (inlined) first.
	Samples []profSample
	// CPUIndex and CountIndex locate the cpu/nanoseconds and
	// samples/count values in each sample.
	CPUIndex, CountIndex int
}

type profSample struct {
	Frames []string
	Values []int64
}

// CPUNanos returns the sample's CPU time.
func (p *profile) CPUNanos(s profSample) int64 { return value(s, p.CPUIndex) }

// TotalCPUNanos sums CPU time over all samples.
func (p *profile) TotalCPUNanos() int64 { return p.sum(p.CPUIndex) }

// SampleCount is the number of profiling ticks; one record holds every
// tick that saw the same stack.
func (p *profile) SampleCount() int64 { return p.sum(p.CountIndex) }

func (p *profile) sum(i int) int64 {
	var t int64
	for _, s := range p.Samples {
		t += value(s, i)
	}
	return t
}

func value(s profSample, i int) int64 {
	if i >= 0 && i < len(s.Values) {
		return s.Values[i]
	}
	return 0
}

// Field numbers of profile.proto messages used here.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// decodeProfile parses a profile, gzipped (as runtime/pprof writes it) or
// raw.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types     [][2]int64 // (type, unit) string indexes
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strs      []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var t [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == fValueTypeType || num == fValueTypeUnit {
					t[num-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case fProfileSample:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendPacked(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendPacked(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{CPUIndex: -1, CountIndex: -1}
	for i, t := range types {
		switch str(t[0]) + "/" + str(t[1]) {
		case "cpu/nanoseconds":
			p.CPUIndex = i
		case "samples/count":
			p.CountIndex = i
		}
	}
	if p.CPUIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	for _, rs := range samples {
		s := profSample{Values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.Frames = append(s.Frames, str(funcNames[fn]))
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks the fields of one message, handing f the field number,
// wire type, and either the varint value or the length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case wire64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case wire32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked delivers a repeated varint field, packed or not.
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
