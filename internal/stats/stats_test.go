package stats

import (
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("sum = %f", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Sum() != 0 {
		t.Fatal("empty summary not all-zero")
	}
}

// Property: merging two summaries equals adding all observations to one.
func TestHistogramPaperBuckets(t *testing.T) {
	h := NewPaperHistogram()
	h.Add(0)
	h.Add(4095)            // < 4 KB
	h.Add(4096)            // < 64 KB
	h.Add(64*1024 - 1)     // < 64 KB
	h.Add(64 * 1024)       // < 256 KB
	h.Add(256*1024 - 1)    // < 256 KB
	h.Add(256 * 1024)      // >= 256 KB
	h.Add(3 * 1024 * 1024) // >= 256 KB
	want := []int64{2, 2, 2, 2}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets %v, want %v", got, want)
		}
	}
	if h.Total() != 8 {
		t.Fatalf("total %d", h.Total())
	}
	if h.NumBuckets() != 4 {
		t.Fatalf("buckets %d", h.NumBuckets())
	}
}

// Property: bucket counts always sum to the total.
func TestHistogramTotalProperty(t *testing.T) {
	prop := func(vals []int64) bool {
		h := NewPaperHistogram()
		for _, v := range vals {
			h.Add(v)
		}
		var sum int64
		for _, c := range h.Buckets() {
			sum += c
		}
		return sum == h.Total() && h.Total() == int64(len(vals))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram([]int64{10, 5})
}

func TestHistogramCountAccessor(t *testing.T) {
	h := NewPaperHistogram()
	h.Add(100)
	h.Add(100_000)
	if h.Count(0) != 1 || h.Count(2) != 1 || h.Count(3) != 0 {
		t.Fatalf("counts %v", h.Buckets())
	}
}
