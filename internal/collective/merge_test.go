package collective

import (
	"reflect"
	"testing"
)

func TestMergeTable(t *testing.T) {
	cases := []struct {
		name string
		in   []Extent
		want []Extent
	}{
		{"empty", nil, nil},
		{"single", []Extent{{0, 10}}, []Extent{{0, 10}}},
		{"drops-empty", []Extent{{5, 5}, {9, 3}}, nil},
		{"disjoint-sorted", []Extent{{0, 10}, {20, 30}}, []Extent{{0, 10}, {20, 30}}},
		{"disjoint-unsorted", []Extent{{20, 30}, {0, 10}}, []Extent{{0, 10}, {20, 30}}},
		{"adjacent", []Extent{{0, 10}, {10, 20}}, []Extent{{0, 20}}},
		{"overlapping", []Extent{{0, 15}, {10, 20}}, []Extent{{0, 20}}},
		{"contained", []Extent{{0, 100}, {10, 20}, {30, 40}}, []Extent{{0, 100}}},
		{"duplicate", []Extent{{5, 9}, {5, 9}}, []Extent{{5, 9}}},
		{"chain", []Extent{{30, 40}, {0, 10}, {10, 20}, {20, 30}}, []Extent{{0, 40}}},
		{
			"mixed",
			[]Extent{{50, 60}, {0, 5}, {4, 12}, {12, 20}, {58, 70}, {100, 101}},
			[]Extent{{0, 20}, {50, 70}, {100, 101}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]Extent(nil), tc.in...)
			got := Merge(tc.in)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Merge(%v) = %v, want %v", tc.in, got, tc.want)
			}
			if !reflect.DeepEqual(in, tc.in) {
				t.Fatalf("Merge modified its input: %v -> %v", in, tc.in)
			}
		})
	}
}

func TestRunsTable(t *testing.T) {
	lay := Layout{StripeUnit: 64, IONodes: 4, FirstIONode: 0}
	cases := []struct {
		name string
		in   []Extent
		lay  Layout
		want []Run
	}{
		{"empty", nil, lay, nil},
		{
			"within-one-stripe",
			[]Extent{{10, 30}},
			lay,
			[]Run{{ION: 0, Offset: 10, Bytes: 20, Chunks: 1}},
		},
		{
			"cross-stripe",
			[]Extent{{10, 100}}, // stripes 0 (node 0) and 1 (node 1)
			lay,
			[]Run{
				{ION: 0, Offset: 10, Bytes: 54, Chunks: 1},
				{ION: 1, Offset: 64, Bytes: 36, Chunks: 1},
			},
		},
		{
			// Stripes 0..7 over 4 nodes: each node gets two whole stripes that
			// are contiguous in its array address space — one run each.
			"two-rounds-coalesce",
			[]Extent{{0, 512}},
			lay,
			[]Run{
				{ION: 0, Offset: 0, Bytes: 128, Chunks: 2},
				{ION: 1, Offset: 64, Bytes: 128, Chunks: 2},
				{ION: 2, Offset: 128, Bytes: 128, Chunks: 2},
				{ION: 3, Offset: 192, Bytes: 128, Chunks: 2},
			},
		},
		{
			// Two disjoint extents on the same node stay two runs: the gap
			// between them is a positioning break, not a contiguity.
			"disjoint-extents-same-node",
			[]Extent{{0, 64}, {256, 320}}, // stripes 0 and 4, both node 0
			lay,
			[]Run{
				{ION: 0, Offset: 0, Bytes: 64, Chunks: 1},
				{ION: 0, Offset: 256, Bytes: 64, Chunks: 1},
			},
		},
		{
			"first-ionode-rotation",
			[]Extent{{0, 64}},
			Layout{StripeUnit: 64, IONodes: 4, FirstIONode: 3},
			[]Run{{ION: 3, Offset: 0, Bytes: 64, Chunks: 1}},
		},
		{
			"single-node-layout",
			[]Extent{{0, 200}},
			Layout{StripeUnit: 64, IONodes: 1, FirstIONode: 0},
			[]Run{{ION: 0, Offset: 0, Bytes: 200, Chunks: 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Runs(tc.in, tc.lay)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Runs(%v, %+v) = %v, want %v", tc.in, tc.lay, got, tc.want)
			}
		})
	}
}

// TestRunsConservation: whatever the extents, the planner's runs move exactly
// the merged byte count, and chunk counts match the stripe walk.
func TestRunsConservation(t *testing.T) {
	lay := Layout{StripeUnit: 64, IONodes: 4, FirstIONode: 2}
	merged := Merge([]Extent{{3, 130}, {130, 700}, {900, 901}, {64, 80}})
	runs := Runs(merged, lay)
	var want, got int64
	for _, e := range merged {
		want += e.Len()
	}
	for _, r := range runs {
		got += r.Bytes
		if r.Bytes <= 0 || r.Chunks < 1 || r.ION < 0 || r.ION >= lay.IONodes {
			t.Fatalf("malformed run %+v", r)
		}
	}
	if got != want {
		t.Fatalf("runs move %d bytes, merged extents hold %d", got, want)
	}
}

func TestSizeHist(t *testing.T) {
	var h SizeHist
	sizes := []int64{1, 512, 513, 64 << 10, 3 << 20}
	for _, n := range sizes {
		h.Add(n)
	}
	if h.Total() != int64(len(sizes)) {
		t.Fatalf("Total = %d, want %d", h.Total(), len(sizes))
	}
	if h.Buckets[0] != 2 { // 1 and 512 both land in the first bucket
		t.Fatalf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", h.Buckets[NumBuckets-1])
	}
	for i := 0; i < NumBuckets; i++ {
		if BucketLabel(i) == "" {
			t.Fatalf("empty label for bucket %d", i)
		}
	}
}

func TestStatsReduction(t *testing.T) {
	if r := (Stats{}).Reduction(); r != 0 {
		t.Fatalf("zero stats reduction = %v, want 0", r)
	}
	s := Stats{RequestsIn: 256, RequestsOut: 32}
	if r := s.Reduction(); r != 8 {
		t.Fatalf("reduction = %v, want 8", r)
	}
}

func TestConfigNormalized(t *testing.T) {
	c := Config{Enabled: true}.Normalized(16)
	if c.Aggregators != 16 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c = Config{Enabled: true, Aggregators: 99}.Normalized(16)
	if c.Aggregators != 16 {
		t.Fatalf("clamps not applied: %+v", c)
	}
}
