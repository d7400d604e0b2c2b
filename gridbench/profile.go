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

// cpuProfile records a CPU profile of a traced phase and attributes its
// samples to layers by the package of each sample's leaf frame.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// shareLayers are the cpu_share.* names, in report order.
var shareLayers = []string{"sim", "exec", "sched", "model", "cluster", "pipeline", "farm", "steal", "stage_fn", "go_runtime", "other"}

// layerOf maps a fully qualified function name to its cpu_share layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main" || pkg == "gridpipe/gridbench": // the latter under go test
		return "stage_fn" // the benchmark's own stage functions
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go_runtime"
	case pkg == "gridpipe/internal/conc/steal":
		return "steal"
	case pkg == "gridpipe/internal/conc":
		return "pipeline" // the stage in-flight limiters
	}
	if rest, ok := strings.CutPrefix(pkg, "gridpipe/internal/"); ok {
		switch rest {
		case "sim", "exec", "sched", "model", "cluster", "pipeline", "farm":
			return rest
		}
	}
	return "other"
}

// stop ends profiling and returns each layer's share of the samples and
// the sample count.
func (p *cpuProfile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	leaves, err := leafFunctions(&p.buf)
	if err != nil {
		return nil, 0, err
	}
	share := map[string]float64{}
	for _, l := range shareLayers {
		share[l] = 0
	}
	total := 0
	for fn, n := range leaves {
		share[layerOf(fn)] += float64(n)
		total += n
	}
	if total > 0 {
		for l := range share {
			share[l] /= float64(total)
		}
	}
	return share, total, nil
}

// leafFunctions decodes a gzipped pprof profile (profile.proto) and
// returns, per function name, the number of samples whose leaf frame is
// in that function. Only the fields needed for that are decoded.
func leafFunctions(r io.Reader) (map[string]int, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leafLoc uint64
		count   int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id → leaf function id
		fnName   = map[uint64]int64{}  // function id → string index
		strtab   []string
		errShort = errors.New("cpu profile: truncated message")
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0 && first:
					s.leafLoc, first = v, false
				case num == 1 && wire == 2 && first:
					if x, n := uvarint(b); n > 0 {
						s.leafLoc, first = x, false
					}
				case num == 2 && wire == 0 && s.count == 0:
					s.count = int64(v)
				case num == 2 && wire == 2 && s.count == 0:
					if x, n := uvarint(b); n > 0 {
						s.count = int64(x)
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			gotLine := false
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2 && !gotLine: // line[0]: the innermost inlined frame
					gotLine = true
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			if wire != 2 {
				return errShort
			}
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	leaves := map[string]int{}
	for _, s := range samples {
		name := "unknown"
		if fn, ok := locFn[s.leafLoc]; ok {
			if si, ok := fnName[fn]; ok && si >= 0 && si < int64(len(strtab)) {
				name = strtab[si]
			}
		}
		leaves[name] += int(s.count)
	}
	return leaves, nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, the varint value (wire type 0) or
// the payload (wire type 2).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: truncated bytes field")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
