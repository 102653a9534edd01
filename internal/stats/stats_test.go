package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Len() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestRunningMeanMatchesSample(t *testing.T) {
	var m RunningMean
	if m.Len() != 0 || m.Mean() != 0 {
		t.Fatalf("empty RunningMean: len %d mean %v", m.Len(), m.Mean())
	}
	s := NewSample(0)
	for i := 0; i < 1000; i++ {
		v := 1e3/float64(i+3) + 0.1*float64(i%7)
		m.Add(v)
		s.Add(v)
	}
	if m.Len() != s.Len() || m.Mean() != s.Mean() {
		t.Fatalf("RunningMean %d/%v, Sample %d/%v: want identical", m.Len(), m.Mean(), s.Len(), s.Mean())
	}
}

func TestSampleMoments(t *testing.T) {
	s := NewSample(4)
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if got := s.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := s.Max(); got != 4 {
		t.Fatalf("Max = %v, want 4", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := NewSample(10)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileClampsRange(t *testing.T) {
	s := NewSample(2)
	s.Add(5)
	s.Add(10)
	if got := s.Quantile(-1); got != 5 {
		t.Fatalf("Quantile(-1) = %v, want 5", got)
	}
	if got := s.Quantile(2); got != 10 {
		t.Fatalf("Quantile(2) = %v, want 10", got)
	}
}

func TestQuantileAfterInterleavedAdds(t *testing.T) {
	s := NewSample(0)
	s.Add(3)
	s.Add(1)
	if got := s.Median(); got != 1 {
		t.Fatalf("median of {1,3} = %v, want 1 (nearest rank)", got)
	}
	s.Add(2) // must re-sort transparently
	if got := s.Median(); got != 2 {
		t.Fatalf("median of {1,2,3} = %v, want 2", got)
	}
}

func TestP999OnLargeSample(t *testing.T) {
	s := NewSample(100000)
	for i := 0; i < 100000; i++ {
		s.Add(float64(i))
	}
	// Nearest rank: ceil(0.999*100000) = 99900 -> value 99899.
	if got := s.P999(); got != 99899 {
		t.Fatalf("P999 = %v, want 99899", got)
	}
}

func TestSampleReset(t *testing.T) {
	s := NewSample(2)
	s.Add(1)
	s.Reset()
	if s.Len() != 0 || s.Mean() != 0 {
		t.Fatal("Reset did not clear sample")
	}
	s.Add(7)
	if got := s.Mean(); got != 7 {
		t.Fatalf("Mean after reset+add = %v, want 7", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		s := NewSample(100)
		for i := 0; i < 100; i++ {
			s.Add(rr.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 6) // buckets: [0,1) [1,2) [2,4) [4,8) [8,16) [16,inf)
	for _, v := range []float64{0.5, 1, 3, 7, 9, 100} {
		h.Add(v)
	}
	want := []uint64{1, 1, 1, 1, 1, 1}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
}

func TestHistogramFractionAbove(t *testing.T) {
	h := NewHistogram(1024, 2, 16)
	for i := 0; i < 90; i++ {
		h.Add(100) // below base
	}
	for i := 0; i < 10; i++ {
		h.Add(10000) // well above 8192 boundary
	}
	got := h.FractionAbove(8192)
	if math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("FractionAbove(8192) = %v, want 0.10", got)
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(0, 2, 4)
}

func TestSeriesAppendAndString(t *testing.T) {
	var s Series
	s.Label = "tq"
	s.Append(1, 2)
	s.Append(3, 4)
	if len(s.X) != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Fatalf("unexpected series contents: %+v", s)
	}
	if got := s.String(); got != "tq\t1\t2\ntq\t3\t4\n" {
		t.Fatalf("String = %q", got)
	}
}
