package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
)

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of vs (0 for none).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	// Rank ceil(q*n), guarded against q*n landing a rounding error above
	// a whole number.
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail returns the highest percentile of vs that still has at least ten
// samples beyond it: the (n-10)/n quantile. It is 0 when there are too
// few samples to have one.
func tail(vs []float64) float64 {
	n := len(vs)
	if n < 11 {
		return 0
	}
	return sorted(vs)[n-11]
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// runtimeTotals reads the process's cumulative heap allocation and GC
// cycle count.
func runtimeTotals() (allocBytes, gcCycles uint64) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// commit reports the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources of the checkout, so a result
// names the code it measured even where no VCS metadata exists.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
