package collective

import (
	"fmt"

	"repro/internal/sim"
)

// Window is the straggler window a partially filled round waits before its
// flusher runs with the members that have arrived. It exists so workloads
// where not every compute node participates in a round (a node past EOF, an
// irregular access count) cannot stall the barrier forever.
const Window = 2 * sim.Millisecond

// Config enables and parameterizes two-phase collective I/O for the
// round-structured access modes (M_RECORD, M_SYNC). The zero value leaves
// the per-request data path untouched.
type Config struct {
	// Enabled turns on round aggregation.
	Enabled bool

	// Aggregators is how many of a round's member nodes act as aggregators,
	// partitioning the I/O nodes among themselves (aggregator a serves the
	// I/O nodes congruent to a modulo Aggregators). <= 0 selects the
	// default of one aggregator per I/O node.
	Aggregators int
}

// Normalized resolves defaults against the I/O-node population.
func (c Config) Normalized(ionodes int) Config {
	if c.Aggregators <= 0 {
		c.Aggregators = ionodes
	}
	if c.Aggregators > ionodes {
		c.Aggregators = ionodes
	}
	return c
}

// NumBuckets is the size-histogram resolution. Bucket i holds requests of at
// most bucketMax[i] bytes; the last bucket is unbounded.
const NumBuckets = 8

var bucketMax = [NumBuckets - 1]int64{
	512, 2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20,
}

// SizeHist is a power-of-four request-size histogram, the unit the paper's
// request-size tables (Tables 2, 4, 6) are expressed in.
type SizeHist struct {
	Buckets [NumBuckets]int64
}

// Add counts one request of n bytes.
func (h *SizeHist) Add(n int64) {
	for i, max := range bucketMax {
		if n <= max {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[NumBuckets-1]++
}

// Total returns the number of requests counted.
func (h *SizeHist) Total() int64 {
	var t int64
	for _, b := range h.Buckets {
		t += b
	}
	return t
}

// BucketLabel names histogram bucket i ("≤512B", …, ">2MB").
func BucketLabel(i int) string {
	if i >= NumBuckets-1 {
		return "> " + sizeLabel(bucketMax[NumBuckets-2])
	}
	return "<= " + sizeLabel(bucketMax[i])
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Stats counts the aggregation machinery's activity. In counts the member
// requests as the application issued them; Out counts the aggregated runs
// actually sent to the I/O nodes — the before/after pair behind the
// request-histogram collapse the report renders.
type Stats struct {
	Rounds        int64 // rounds flushed
	FullRounds    int64 // flushed because the whole compute group arrived
	TimeoutRounds int64 // flushed by the straggler-window timer
	RequestsIn    int64 // member requests submitted to round barriers
	BytesIn       int64
	RequestsOut   int64 // aggregated runs issued to the I/O nodes
	BytesOut      int64
	MergedExtents int64 // disjoint extents after interval merging, summed over rounds
	ShuffleMsgs   int64 // gather/scatter data messages exchanged over the mesh
	ShuffleBytes  int64

	In  SizeHist // member request sizes
	Out SizeHist // aggregated run sizes
}

// Reduction returns the physical request-count reduction factor
// (RequestsIn / RequestsOut), or 0 when nothing was aggregated.
func (s Stats) Reduction() float64 {
	if s.RequestsOut == 0 {
		return 0
	}
	return float64(s.RequestsIn) / float64(s.RequestsOut)
}
