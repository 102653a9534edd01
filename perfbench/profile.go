package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers a CPU-profile sample is charged to, in
// report order. The cpu.<bucket> shares sum to 1.
var cpuBuckets = []string{
	"sim", "pifo", "workload", "cluster.kernel", "cluster.policy", "core",
	"rack", "stats", "obs", "go-runtime.alloc", "go-runtime.gc", "bench", "other",
}

// kernelReceivers are the cluster types of the shared machine kernel;
// every other cluster frame is machine policy.
var kernelReceivers = []string{"machineRun", "metrics", "admission", "jobPool", "Pump"}

// gcFrames mark garbage-collector work (background marking, assists,
// sweeping, scavenging, write-barrier flushes).
var gcFrames = []string{
	"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.markroot", "runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.(*mspan).sweep", "runtime.bgscavenge",
	"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
}

// allocFrames mark heap allocation.
var allocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
	"runtime.newarray", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frameBucket classifies one frame; "" means keep walking outward.
// Random-number draws (internal/rng) are charged to the layer that
// draws them, as are standard-library calls such as math.Log.
func frameBucket(fn string) string {
	switch {
	case hasAnyPrefix(fn, gcFrames):
		return "go-runtime.gc"
	case hasAnyPrefix(fn, allocFrames):
		return "go-runtime.alloc"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, sym, ok := strings.Cut(rest, ".")
	if !ok || strings.Contains(pkg, "/") {
		return "other"
	}
	switch pkg {
	case "rng":
		return ""
	case "cluster":
		if strings.HasPrefix(sym, "NewPump") {
			return "cluster.kernel"
		}
		for _, r := range kernelReceivers {
			if strings.HasPrefix(sym, "(*"+r+")") || strings.HasPrefix(sym, "("+r+")") {
				return "cluster.kernel"
			}
		}
		return "cluster.policy"
	case "sim", "pifo", "workload", "core", "rack", "stats", "obs":
		return pkg
	}
	return "other"
}

// sampleBucket charges a stack (leaf first) to the innermost frame
// that classifies; a stack with none goes to "other".
func sampleBucket(stack []string) string {
	for _, fn := range stack {
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	return "other"
}

// cpuShares reads a gzipped runtime/pprof CPU profile and returns each
// bucket's share of sampled CPU time and the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, weights, counts, err := decodeCPUProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total float64
	var samples int64
	for i, st := range stacks {
		shares[sampleBucket(st)] += float64(weights[i])
		total += float64(weights[i])
		samples += counts[i]
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile holds no samples")
	}
	for _, b := range cpuBuckets {
		shares[b] /= total
	}
	return shares, samples, nil
}

// decodeCPUProfile is a minimal reader of the profile.proto format
// runtime/pprof writes: for each sample it returns the function names
// of its stack (innermost first, inlined frames expanded), its CPU
// nanoseconds and its sample count.
func decodeCPUProfile(gz []byte) (stacks [][]string, weights, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, nil, nil, errors.New("cpu profile: sample without count and nanoseconds")
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					st = append(st, strs[idx])
				}
			}
		}
		stacks = append(stacks, st)
		counts = append(counts, int64(s.values[0]))
		weights = append(weights, int64(s.values[1]))
	}
	return stacks, weights, counts, nil
}

// appendVarints appends a repeated integer field, which the encoder
// writes either packed (b holds varints) or as one varint v.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value (b nil) or its length-delimited bytes.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := varint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
