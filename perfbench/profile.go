package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// buckets are the cpu_share.<bucket> names, in report order; "other" takes
// what no bucket claims so the shares sum to one.
var buckets = []string{"sim", "networks", "core", "traffic", "rand", "cpu", "opgraph",
	"harness", "expcache", "json", "http", "gc", "other"}

// simBuckets are the buckets whose time is simulation, for server.sim_share.
var simBuckets = []string{"sim", "networks", "core", "traffic", "rand", "cpu", "opgraph"}

// bucketOf maps a function's package to a bucket, or "" for packages that
// pass the sample on to their caller (the runtime allocator, syscalls,
// generic standard-library helpers).
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	const mc = "macrochip/internal/"
	switch {
	case pkg == mc+"sim":
		return "sim"
	case strings.HasPrefix(pkg, mc+"networks"):
		return "networks"
	case pkg == mc+"core":
		return "core"
	case pkg == mc+"traffic":
		return "traffic"
	case pkg == "math/rand":
		return "rand"
	case pkg == mc+"cpu", pkg == mc+"coherence", pkg == mc+"cache",
		pkg == mc+"directory", pkg == mc+"workload", pkg == mc+"memory":
		return "cpu"
	case pkg == mc+"opgraph":
		return "opgraph"
	case pkg == mc+"harness", pkg == mc+"distrib":
		return "harness"
	case pkg == mc+"expcache":
		return "expcache"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http", pkg == "net", pkg == mc+"server":
		return "http"
	}
	return ""
}

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot", "runtime.scanobject",
	"runtime.gcStart", "runtime.sweepone"}

// cpuShares decodes a gzipped pprof CPU profile and returns each bucket's
// share of the sampled CPU time, attributing a sample to the first frame
// from the leaf up that belongs to a bucket.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	share := map[string]float64{}
	for _, b := range buckets {
		share[b] = 0
	}
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		share[p.classify(s.locs)] += v
	}
	if total > 0 {
		for b := range share {
			share[b] /= total
		}
	}
	return share, nil
}

func (p *profile) classify(locs []uint64) string {
	var frames []string
	for _, id := range locs {
		for _, fid := range p.locations[id] {
			frames = append(frames, p.strings[p.functions[fid]])
		}
	}
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if b := bucketOf(f); b != "" {
			return b
		}
	}
	return "other"
}

// profile is the part of profile.proto the shares need.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, leaf first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, data)
				case 2:
					for _, x := range appendVarints(nil, wire, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
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
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.functions {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return p, nil
}

// appendVarints collects a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
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

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, handing each field to fn: varints
// in v, length-delimited payloads in data.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// setShares reports the profile's buckets as cpu_share.<bucket> metrics.
func (o *outcome) setShares(shares map[string]float64) {
	for _, b := range buckets {
		o.set("cpu_share."+b, "1", shares[b])
	}
}
