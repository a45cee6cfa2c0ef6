package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"time"
)

// The repository's module path: a stack frame belongs to the repository
// when its function's package path starts with it.
const repoModule = "qav/"

// Layers CPU samples are charged to. Every sample goes to exactly one.
const (
	laySimSched  = "sim.sched"     // sim: engine, calendar queue, scheduler
	laySimLink   = "sim.link"      // sim: links, queues, RED, topology, packets, fluid
	layTransport = "transport"     // transport backends and rap
	layTCP       = "tcp"           // Sack-TCP
	layCore      = "core"          // the QA controller
	layScenario  = "scenario"      // scenario, figures, trace and metrics
	layWire      = "netio.wire"    // wire codec
	laySession   = "netio.session" // per-client session and seqring
	layPacer     = "netio.pacer"   // timing wheel and the shard loop
	layBatch     = "netio.batch"   // batched socket I/O, syscalls included
	layRuntime   = "runtime"       // no repository frame on the stack
	layOther     = "other"         // other repository code (the benchmark, cbr, video, ...)
)

// profileLayers lists every layer in report order.
var profileLayers = []string{
	laySimSched, laySimLink, layTransport, layTCP, layCore, layScenario,
	layWire, laySession, layPacer, layBatch, layRuntime, layOther,
}

// layerOf maps a repository function (package path and source file) to
// its layer; ok is false for frames outside the repository.
func layerOf(pkg, file string) (layer string, ok bool) {
	if !strings.HasPrefix(pkg, repoModule) {
		return "", false
	}
	base := path.Base(file)
	switch rel := strings.TrimPrefix(pkg, repoModule); {
	case rel == "internal/sim":
		switch base {
		case "engine.go", "calqueue.go", "sched.go":
			return laySimSched, true
		}
		return laySimLink, true
	case rel == "internal/rap", rel == "internal/transport", strings.HasPrefix(rel, "internal/transport/"):
		return layTransport, true
	case rel == "internal/tcp":
		return layTCP, true
	case rel == "internal/core":
		return layCore, true
	case rel == "internal/scenario", rel == "internal/figures", rel == "internal/trace", rel == "internal/metrics":
		return layScenario, true
	case rel == "internal/netio":
		switch {
		case base == "wire.go":
			return layWire, true
		case base == "session.go", base == "seqring.go":
			return laySession, true
		case base == "wheel.go", base == "mserver.go":
			return layPacer, true
		case strings.HasPrefix(base, "batch"), strings.HasPrefix(base, "reuseport"):
			return layBatch, true
		}
	}
	return layOther, true
}

// funcPackage returns the package path of a fully qualified Go function
// name such as "qav/internal/sim.(*Engine).Step".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// frame is one function on a sampled stack.
type frame struct {
	fn, file string
}

// chargeStack applies the charging rule to one sampled stack, listed
// innermost frame first: the sample belongs to the layer of the
// innermost repository frame, so a map operation or an allocation
// inside rap.Sender counts as transport; a stack with no repository
// frame counts as runtime.
func chargeStack(stack []frame) string {
	for _, f := range stack {
		if l, ok := layerOf(funcPackage(f.fn), f.file); ok {
			return l
		}
	}
	return layRuntime
}

// cpuProfile is the part of a pprof CPU profile the charging rule
// needs: each sample's stack and CPU nanoseconds.
type cpuProfile struct {
	stacks [][]frame
	nanos  []int64
}

// chargeLayers sums a profile's CPU nanoseconds by layer.
func (p *cpuProfile) chargeLayers() (byLayer map[string]int64, total int64) {
	byLayer = map[string]int64{}
	for i, st := range p.stacks {
		byLayer[chargeStack(st)] += p.nanos[i]
		total += p.nanos[i]
	}
	return byLayer, total
}

// parseCPUProfile decodes a gzipped pprof protobuf CPU profile, as
// runtime/pprof writes it. Only the fields the charging rule reads are
// decoded.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs     []string
		types    []int64 // sample_type string index, per value column
		samples  []sample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}
		funcFile = map[uint64]int64{}
	)
	err = pbFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := pbFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = pbUints(s.locs, w, v, b)
				case 2:
					for _, u := range pbUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := pbFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcName[id], funcFile[id] = name, file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	col := -1
	for i, t := range types {
		if str(t) == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu sample column")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if col >= len(s.values) {
			continue
		}
		var st []frame
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				st = append(st, frame{fn: str(funcName[fid]), file: str(funcFile[fid])})
			}
		}
		p.stacks = append(p.stacks, st)
		p.nanos = append(p.nanos, s.values[col])
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn for every field with
// its number, wire type, and either its varint value or its bytes.
func pbFields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
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
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field that may be packed (wire
// type 2) or written one varint at a time.
func pbUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// setLayerShares records the profile-charged CPU by layer: each layer's
// share of the profiled CPU, the profiled CPU per packet, and the part
// of the measured CPU the profile did not see. Shares, not times, so a
// layer the workload never runs reads a true 0.
func setLayerShares(rep *report, p *cpuProfile, measured time.Duration, pkts int64) {
	byLayer, total := p.chargeLayers()
	for _, l := range profileLayers {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(byLayer[l]) / float64(total)
		}
		rep.set("cpu."+l+"_pct", "%", pct)
		rep.note("layer %-14s %6.2f%% of profiled CPU, %8.1f ns/pkt", l, pct, float64(byLayer[l])/float64(pkts))
	}
	rep.set("cpu.profiled_ns_per_pkt", "ns", float64(total)/float64(pkts))
	unexplained := 0.0
	if measured > 0 {
		unexplained = 100 * float64(measured.Nanoseconds()-total) / float64(measured.Nanoseconds())
	}
	rep.set("cpu.unexplained_pct", "%", unexplained)
	rep.note("profiled CPU %.3f s of measured %.3f s: %.2f%% unexplained", float64(total)/1e9, measured.Seconds(), unexplained)
}
