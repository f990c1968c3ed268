// Package stats provides the descriptive statistics and fixed-bucket
// histograms used throughout the characterization: the paper's off-line
// analyses report "means, variances, minima, maxima, and distributions of
// file operation durations and sizes" (§3.1), and its size tables bucket
// requests at 4 KB, 64 KB and 256 KB boundaries.
package stats

import "fmt"

// Summary holds running descriptive statistics over a stream of float64
// observations: count, sum, minimum, maximum, and a running mean updated
// incrementally (numerically stable, as in Welford's algorithm).
type Summary struct {
	n    int64
	mean float64
	min  float64
	max  float64
	sum  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	d := x - s.mean
	s.mean += d / float64(s.n)
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// PaperBuckets are the request-size bucket upper bounds of Tables 2, 4 and 6:
// <4 KB, <64 KB, <256 KB, and >=256 KB (the final open bucket).
var PaperBuckets = []int64{4 * 1024, 64 * 1024, 256 * 1024}

// PaperBucketLabels are the column headings for PaperBuckets.
var PaperBucketLabels = []string{"< 4 KB", "< 64 KB", "< 256 KB", ">= 256 KB"}

// Histogram counts observations in half-open ranges defined by ascending
// upper bounds, with one extra open-ended bucket at the top. Bucket i holds
// values in [bounds[i-1], bounds[i]); the last bucket holds values >=
// bounds[len-1].
type Histogram struct {
	bounds []int64
	counts []int64
	total  int64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending: %v", bounds))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(bounds)+1)}
}

// NewPaperHistogram creates a histogram with the paper's size buckets.
func NewPaperHistogram() *Histogram { return NewHistogram(PaperBuckets) }

// Add counts one observation.
func (h *Histogram) Add(v int64) {
	h.total++
	for i, b := range h.bounds {
		if v < b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Buckets returns a copy of the per-bucket counts (len(bounds)+1 entries).
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Count returns the count in bucket i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// NumBuckets returns the number of buckets (bounds + 1).
func (h *Histogram) NumBuckets() int { return len(h.counts) }
