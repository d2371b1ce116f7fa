package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuLedger attributes CPU-profile time to packages by self time: a
// sample is charged to the package of its innermost frame, except that
// time in a standard-library helper other than the runtime (a
// slices.Sort, a math.Log) is charged to the simulator or benchmark
// package that called it. Two runtime rows ride along: memmove, and
// garbage collection counted by stack (any sample under a GC worker, a
// mark assist or the background sweeper or scavenger).
type cpuLedger map[string]int64

// gcRoots are the runtime functions every garbage-collection sample has
// on its stack.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// add decodes one gzipped profile.proto CPU profile, as runtime/pprof
// writes it, and adds its samples to the ledger.
func (l cpuLedger) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) < 2 {
			continue
		}
		// Go's CPU profiles carry [samples/count, cpu/nanoseconds].
		ns := s.values[1]
		var frames []string
		for _, id := range s.locs {
			for _, fn := range p.locFuncs[id] {
				frames = append(frames, p.funcName(fn))
			}
		}
		if len(frames) == 0 {
			continue
		}
		owner := frames[0]
		if !isRuntime(owner) {
			if i := slices.IndexFunc(frames, isOwn); i >= 0 {
				owner = frames[i]
			}
		}
		l[pkgOf(owner)] += ns
		if frames[0] == "runtime.memmove" {
			l["runtime.memmove"] += ns
		}
		if slices.ContainsFunc(frames, func(f string) bool { return gcRoots[f] }) {
			l["runtime.gc"] += ns
		}
		l["total"] += ns
	}
	return nil
}

// isRuntime reports whether sym belongs to the Go runtime.
func isRuntime(sym string) bool {
	return strings.HasPrefix(sym, "runtime") || strings.HasPrefix(sym, "internal/")
}

// isOwn reports whether sym belongs to the simulator or the benchmark.
func isOwn(sym string) bool {
	return strings.HasPrefix(sym, "nmapsim/") || strings.HasPrefix(sym, "main.")
}

// pkgOf maps a symbol such as
// "nmapsim/internal/kernel.(*CoreKernel).runApp" to its package's last
// element ("kernel").
func pkgOf(sym string) string {
	if i := strings.LastIndexByte(sym, '/'); i >= 0 {
		sym = sym[i+1:]
	}
	if i := strings.IndexByte(sym, '.'); i >= 0 {
		sym = sym[:i]
	}
	return sym
}

// profile holds the parts of a profile.proto message the ledger reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]int64    // function id → name string index
	strs     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && i < int64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
	sampleLocation = 1
	sampleValue    = 2
	locID          = 1
	locLine        = 4
	lineFunction   = 1
	funcID         = 1
	funcName       = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStrings:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, handing fn the
// value of a varint field or the bytes of a length-delimited one, the
// only wire types profile.proto uses.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field that arrived either as one
// unpacked value (packed == nil) or as a packed run.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
