package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run attributes CPU from a runtime/pprof profile the harness
// itself starts (or, for serve, fetches from the server's pprof handler).
// Only the few profile.proto fields needed to walk each sample's stack are
// decoded, so the benchmark needs nothing beyond the standard library.

// layerOf maps a repository package (last path element) to the layer the
// per-layer table reports it under.
var layerOf = map[string]string{
	"burgers":   "kernel",
	"advection": "kernel",
	"heat3d":    "kernel",
	"field":     "field",
	"dw":        "field",
	"athread":   "athread",
	"sw26010":   "athread",
	"mpisim":    "mpisim",
	"scheduler": "scheduler",
	"grid":      "grid",
	"sim":       "sim",
}

// profLayers are the layers reported as <layer>.cpu_frac.
var profLayers = []string{"kernel", "field", "athread", "mpisim", "scheduler", "grid", "sim"}

const (
	modulePrefix = "sunuintah/internal/"
	exactBCFunc  = "sunuintah/internal/burgers.Exact"
)

// handoffStems mark runtime frames of goroutine handoff: channel
// operations, parking and the scheduler loop, down to the futex.
var handoffStems = []string{
	"runtime.chan", "runtime.selectgo", "runtime.gopark", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.goready", "runtime.ready",
	"runtime.futex", "runtime.note", "runtime.mcall", "runtime.stopm",
	"runtime.startm", "runtime.wakep",
}

// gcStems mark garbage-collector work: the background workers (whose
// parking is GC cost, not process handoff) and mutator assists.
var gcStems = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc"}

// profAgg accumulates sampled CPU nanoseconds by attribution.
type profAgg struct {
	total   float64
	layer   map[string]float64
	exactBC float64
	sched   float64
	gc      float64 // read for serve, whose server runtime/metrics are out of reach
}

func newProfAgg() *profAgg { return &profAgg{layer: map[string]float64{}} }

func (a *profAgg) frac(x float64) float64 {
	if a.total == 0 {
		return 0
	}
	return x / a.total
}

// cpuProfiler brackets one profiled stretch of the harness process.
type cpuProfiler struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfiler, error) {
	p := &cpuProfiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds it into agg.
func (p *cpuProfiler) stop(agg *profAgg) error {
	pprof.StopCPUProfile()
	return agg.add(p.buf.Bytes())
}

// funcPackage returns the import path of a symbolised Go function name,
// e.g. "sunuintah/internal/sim" for "sunuintah/internal/sim.(*Engine).Run".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation lists contain dots and slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func hasStem(name string, stems []string) bool {
	for _, s := range stems {
		if strings.HasPrefix(name, s) {
			return true
		}
	}
	return false
}

// add decodes one gzipped profile and attributes each sample: to the
// layer of its leaf frame (math frames are charged to their caller, since
// the kernels' arithmetic lives there), to the Burgers exact-solution
// boundary fill when that function is anywhere on the stack, and to
// runtime handoff when a runtime leaf sits under a handoff frame.
func (a *profAgg) add(gz []byte) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.funcName(fn))
			}
		}
		a.total += s.nanos
		leaf := ""
		for _, f := range frames {
			if pkg := funcPackage(f); pkg != "math" && pkg != "math/bits" {
				leaf = f
				break
			}
		}
		leafPkg := funcPackage(leaf)
		if strings.HasPrefix(leafPkg, modulePrefix) {
			if l, ok := layerOf[strings.TrimPrefix(leafPkg, modulePrefix)]; ok {
				a.layer[l] += s.nanos
			}
		}
		var exact, handoff, gc bool
		for _, f := range frames {
			exact = exact || f == exactBCFunc
			handoff = handoff || hasStem(f, handoffStems)
			gc = gc || hasStem(f, gcStems)
		}
		if exact {
			a.exactBC += s.nanos
		}
		if leafPkg == "runtime" && handoff && !gc {
			a.sched += s.nanos
		}
		if gc {
			a.gc += s.nanos
		}
	}
	return nil
}

// profile is the decoded subset of profile.proto.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, leaf (innermost inline) first
	funcStr  map[uint64]int64    // function id -> string-table index of its name
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	nanos float64
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcStr[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// Field numbers of profile.proto.
const (
	pbProfileSample   = 2
	pbProfileLocation = 4
	pbProfileFunction = 5
	pbProfileStrings  = 6
	pbSampleLocation  = 1
	pbSampleValue     = 2
	pbLocationID      = 1
	pbLocationLine    = 4
	pbLineFunction    = 1
	pbFunctionID      = 1
	pbFunctionName    = 2
)

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcStr: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case pbProfileSample:
			var s profSample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case pbSampleLocation:
					s.locs = appendRepeated(s.locs, v, b)
				case pbSampleValue:
					vals = appendRepeated(vals, v, b)
				}
				return nil
			})
			// A Go CPU profile's values are [samples, cpu nanoseconds].
			if len(vals) >= 2 {
				s.nanos = float64(vals[1])
			}
			p.samples = append(p.samples, s)
			return err
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case pbLocationID:
					id = v
				case pbLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == pbLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case pbProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcStr[id] = name
			return err
		case pbProfileStrings:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendRepeated appends one element of a repeated varint field, which
// the encoder writes either unpacked (v) or packed (b).
func appendRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, handing each field to fn: varints
// as v (b nil), length-delimited fields as b. Fixed-width fields, which
// profile.proto does not use here, are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf: unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
