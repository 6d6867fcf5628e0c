package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// startProfile starts the Go CPU profiler into memory; the returned
// function stops it and returns the gzipped profile.
func startProfile() func() []byte {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return func() []byte { return nil }
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}
}

// profiledModules are the internal/<module> packages whose CPU share a
// traced run reports.
var profiledModules = []string{
	"sim", "exec", "omp", "core", "nautilus", "linuxsim", "memsim",
	"pik", "nas", "cck", "virgil", "tenancy",
}

const modulePrefix = "github.com/interweaving/komp/internal/"

// profileShares accumulates CPU-profile samples by owner: the Go
// runtime's goroutine switching, its garbage collector, or the innermost
// internal/<module> package on the stack (its self time, including the
// runtime and library code it calls directly).
type profileShares struct {
	total   int64
	byOwner map[string]int64
}

// add decodes one gzipped pprof profile and attributes its samples.
func (s *profileShares) add(gz []byte) {
	if len(gz) == 0 {
		return
	}
	p, err := decodeProfile(gz)
	if err != nil {
		return
	}
	if s.byOwner == nil {
		s.byOwner = map[string]int64{}
	}
	for _, smp := range p.samples {
		var frames []string
		for _, loc := range smp.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		s.total += smp.count
		s.byOwner[owner(frames)] += smp.count
	}
}

// owner attributes a stack (leaf first) to one owner.
func owner(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "goruntime.gc"
		}
	}
	for _, f := range frames {
		if isSwitch(f) {
			return "goruntime.switch"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

func isGC(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.greyobject", "runtime.wbBufFlush"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// switchFuncs are the runtime's goroutine park/ready/schedule paths: a
// blocking channel operation or semaphore, and the scheduler it enters.
var switchFuncs = map[string]bool{
	"runtime.chanrecv": true, "runtime.chansend": true, "runtime.selectgo": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.schedule": true, "runtime.park_m": true, "runtime.mcall": true,
	"runtime.findRunnable": true, "runtime.gosched_m": true, "runtime.goschedImpl": true,
	"runtime.semacquire1": true, "runtime.semrelease1": true, "runtime.goexit0": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
}

func isSwitch(f string) bool { return switchFuncs[f] }

// report sets every profiled share (0 when no profile was taken).
func (s *profileShares) report(rep *report) {
	share := func(o string) float64 {
		if s.total == 0 {
			return 0
		}
		return float64(s.byOwner[o]) / float64(s.total)
	}
	for _, m := range profiledModules {
		rep.set(m+".cpu_share", share(m), "ratio")
	}
	rep.set("goruntime.switch_share", share("goruntime.switch"), "ratio")
	rep.set("goruntime.gc_share", share("goruntime.gc"), "ratio")
	rep.addExtra("profile.samples", float64(s.total), "count")
}

// decodedProfile is the subset of profile.proto the attribution needs.
type decodedProfile struct {
	strings  []string
	samples  []decodedSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string index
}

type decodedSample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile parses a gzipped pprof profile (profile.proto): samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(gz []byte) (*decodedProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &decodedProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s decodedSample
			err := eachField(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, bb)
				case 2:
					if s.count == 0 { // the first value: sample count
						if bb != nil {
							vals := appendVarints(nil, 0, bb)
							if len(vals) > 0 {
								s.count = int64(vals[0])
							}
						} else {
							s.count = int64(v)
						}
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field: a single value v when
// b is nil, else the packed encoding in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("perfbench: malformed profile")

// eachField walks a protobuf message, calling fn with the field number
// and either the varint value (b nil) or the length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
