package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzipped profile.proto that runtime/pprof writes,
// enough to attribute CPU time to packages without the pprof tool. Only
// the fields below are decoded; everything else is skipped.
//
//	Profile:  sample = 2, location = 4, function = 5, string_table = 6
//	Sample:   location_id = 1 (packed), value = 2 (packed)
//	Location: id = 1, line = 4
//	Line:     function_id = 1
//	Function: id = 1, name = 2 (string table index)

type pbField struct {
	num  int
	wire int
	v    uint64 // varint / fixed value
	b    []byte // length-delimited payload
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("cpuprof: bad varint")
}

// pbEach calls fn for every field of a message.
func pbEach(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return err
			}
		case 1:
			n = 8
		case 2:
			l, m, err := pbVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(b)-m) < l {
				return errors.New("cpuprof: truncated field")
			}
			f.b, n = b[m:m+int(l)], m+int(l)
		case 5:
			n = 4
		default:
			return fmt.Errorf("cpuprof: wire type %d", f.wire)
		}
		if n > len(b) {
			return errors.New("cpuprof: truncated field")
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbInts decodes a repeated integer field, packed or not.
func pbInts(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// cpuSample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded), and its CPU nanoseconds.
type cpuSample struct {
	stack []string
	ns    int64
}

func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpuprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpuprof: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2:
			var s rawSample
			err := pbEach(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbInts(g, s.locs)
				case 2:
					s.vals, err = pbInts(g, s.vals)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbEach(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return pbEach(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbEach(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{ns: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuCategories are the buckets the profile is attributed to. gc is judged
// by the whole stack (collector work runs in background workers and in
// allocation assists); the others by the leaf function's package, which is
// self time: a getrandom system call, for one, lands in syscall, not rand.
// The cumulative shares count a sample for every package category anywhere
// on its stack.
var (
	cpuCategories = []string{"gob", "crc32", "aes_gcm", "rand", "syscall", "gc"}
	cumCategories = []string{"gob", "crc32", "aes_gcm", "rand"}
)

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// pkgCategory maps one function to its package category, or "".
func pkgCategory(fn string) string {
	has := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	switch {
	case has("encoding/gob."):
		return "gob"
	case has("hash/crc32."):
		return "crc32"
	case has("crypto/aes.", "crypto/cipher.", "crypto/internal/fips140/aes", "crypto/internal/aes"):
		return "aes_gcm"
	case has("crypto/rand.", "crypto/internal/sysrand.", "crypto/internal/fips140/drbg.",
		"crypto/internal/randutil.", "runtime.vgetrandom"):
		return "rand"
	case has("syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.", "internal/syscall/"),
		fn == "runtime.futex", fn == "runtime.epollwait", fn == "runtime.write1",
		fn == "runtime.read", fn == "runtime.usleep":
		return "syscall"
	}
	return ""
}

// cpuShares accumulates profile time per category.
type cpuShares struct {
	total int64
	self  map[string]int64
	cum   map[string]int64
}

func (s *cpuShares) add(gz []byte) error {
	samples, err := parseCPUProfile(gz)
	if err != nil {
		return err
	}
	if s.self == nil {
		s.self, s.cum = map[string]int64{}, map[string]int64{}
	}
	for _, cs := range samples {
		s.total += cs.ns
		gc := false
		seen := map[string]bool{}
		for _, fn := range cs.stack {
			gc = gc || isGC(fn)
			if cat := pkgCategory(fn); cat != "" && !seen[cat] {
				seen[cat] = true
				s.cum[cat] += cs.ns
			}
		}
		switch {
		case gc:
			s.self["gc"] += cs.ns
		case len(cs.stack) > 0:
			if cat := pkgCategory(cs.stack[0]); cat != "" {
				s.self[cat] += cs.ns
			}
		}
	}
	return nil
}

func (s *cpuShares) share(m map[string]int64, cat string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(m[cat]) / float64(s.total)
}
