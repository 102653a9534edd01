// Package stats provides the latency accounting used throughout the
// Tiny Quanta evaluation: exact percentile computation over recorded
// samples, fixed-bucket histograms, and slowdown bookkeeping.
//
// The paper reports 99.9th-percentile latencies and slowdowns, so the
// estimators here are exact (sorted-sample) rather than approximate;
// simulated experiments record at most a few million samples, which fits
// comfortably in memory.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers percentile and
// moment queries. The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
	sum    float64
}

// NewSample returns a Sample with capacity pre-allocated for n
// observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// Len reports the number of recorded observations.
func (s *Sample) Len() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 if no observations were
// recorded.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// RunningMean accumulates a count and a sum: the mean of a stream
// without storing it, for per-event observations whose distribution
// nobody reads (the machines' realized preemption intervals). Its Mean
// is bit-identical to a Sample's over the same Add sequence. The zero
// value is ready to use.
type RunningMean struct {
	n   int
	sum float64
}

// Add records one observation.
func (m *RunningMean) Add(v float64) {
	m.n++
	m.sum += v
}

// Len reports the number of recorded observations.
func (m RunningMean) Len() int { return m.n }

// Mean returns the arithmetic mean, or 0 if no observations were
// recorded.
func (m RunningMean) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Max returns the largest observation, or 0 if none were recorded.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// Min returns the smallest observation, or 0 if none were recorded.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method, or 0 if no observations were recorded. Quantile(0.999) is the
// paper's p99.9.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s.sort()
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.values[rank-1]
}

// P999 is shorthand for Quantile(0.999).
func (s *Sample) P999() float64 { return s.Quantile(0.999) }

// P99 is shorthand for Quantile(0.99).
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Median is shorthand for Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Values returns the recorded observations in unspecified order. The
// returned slice is owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 { return s.values }

// Reset discards all observations but keeps the allocated capacity.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.sum = 0
	s.sorted = false
}

// Histogram counts observations in geometrically spaced buckets; it is
// used for the reuse-distance plots (Figure 15) where the x-axis spans
// several orders of magnitude.
type Histogram struct {
	// Base is the lower bound of the first finite bucket; values below
	// it land in bucket 0.
	Base float64
	// Growth is the ratio between consecutive bucket upper bounds; it
	// must be > 1.
	Growth float64
	counts []uint64
	total  uint64
}

// NewHistogram returns a histogram whose bucket b (b >= 1) covers
// [base*growth^(b-1), base*growth^b); bucket 0 covers [0, base).
func NewHistogram(base, growth float64, buckets int) *Histogram {
	if base <= 0 || growth <= 1 || buckets < 1 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Base: base, Growth: growth, counts: make([]uint64, buckets)}
}

// Add records one observation; values beyond the last bucket are
// clamped into it.
func (h *Histogram) Add(v float64) {
	h.total++
	if v < h.Base {
		h.counts[0]++
		return
	}
	b := 1 + int(math.Floor(math.Log(v/h.Base)/math.Log(h.Growth)))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
}

// Total reports the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Buckets returns a copy of the per-bucket counts.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// BucketUpper returns the exclusive upper bound of bucket b.
func (h *Histogram) BucketUpper(b int) float64 {
	if b == 0 {
		return h.Base
	}
	return h.Base * math.Pow(h.Growth, float64(b))
}

// FractionAbove reports the fraction of observations with value >=
// threshold, computed from bucket boundaries (so threshold should align
// with a bucket edge for exact answers).
func (h *Histogram) FractionAbove(threshold float64) float64 {
	if h.total == 0 {
		return 0
	}
	var above uint64
	for b, c := range h.counts {
		if h.BucketUpper(b) > threshold {
			above += c
		}
	}
	return float64(above) / float64(h.total)
}

// Series is a labelled (x, y) sequence, the common currency of the
// experiment drivers: one Series per curve in a paper figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders the series as tab-separated rows, one per point.
func (s *Series) String() string {
	out := ""
	for i := range s.X {
		out += fmt.Sprintf("%s\t%g\t%g\n", s.Label, s.X[i], s.Y[i])
	}
	return out
}
