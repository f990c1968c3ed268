package disk

import (
	"testing"

	"repro/internal/sim"
)

// Golden healthy-vs-degraded comparison: the same request sequence on a
// healthy and a one-drive-down array. Degraded reads pay the reconstruction
// overhead plus the (D-1)/(D-2) transfer stretch; degraded writes cost
// exactly what healthy ones do.
func TestDegradedServiceGolden(t *testing.T) {
	cfg := testArrayConfig() // 5 drives, 1 µs/byte, 10 ms position, 1 ms overhead
	healthy := NewArray(cfg)
	degraded := NewArray(cfg)
	degraded.FailDisk(0)
	if !degraded.Degraded() {
		t.Fatal("array not degraded after FailDisk")
	}

	type req struct {
		stream, addr, bytes int64
		read                bool
	}
	seq := []req{
		{0, 0, 1000, true},                                                          // first read: positioning
		{0, 1000, 1000, true},                                                       // sequential read
		{1, 50000, 2000, false} /* write on a new stream */, {1, 52000, 500, false}, // sequential write
		{0, 2000, 4000, true}, // back on stream 0, sequential
	}

	factor := degraded.DegradedReadFactor()
	if want := 4.0 / 3.0; factor != want {
		t.Fatalf("DegradedReadFactor() = %v, want %v", factor, want)
	}
	recon := cfg.Overhead / 2 // default reconstruction overhead

	for i, q := range seq {
		h := healthy.Service(q.stream, q.addr, q.bytes, q.read)
		d := degraded.Service(q.stream, q.addr, q.bytes, q.read)
		transfer := sim.Time(float64(q.bytes) / cfg.BWBytesPerS * float64(sim.Second))
		want := h
		if q.read {
			want = h + recon + sim.Time(float64(transfer)*factor) - transfer
		}
		if d != want {
			t.Errorf("req %d (%+v): degraded %v, want %v (healthy %v)", i, q, d, want, h)
		}
	}

	hs, ds := healthy.Stats(), degraded.Stats()
	if hs.DegradedRequests != 0 {
		t.Errorf("healthy DegradedRequests = %d", hs.DegradedRequests)
	}
	if ds.DegradedRequests != int64(len(seq)) {
		t.Errorf("degraded DegradedRequests = %d, want %d", ds.DegradedRequests, len(seq))
	}
	if ds.Busy <= hs.Busy {
		t.Errorf("degraded busy %v not above healthy %v", ds.Busy, hs.Busy)
	}
}

// Rebuild proceeds in fixed-size slices charged at the rebuild bandwidth, and
// completing the last slice repairs the array and closes the degraded
// interval in the stats.
func TestRebuildSlicesAndCompletion(t *testing.T) {
	cfg := testArrayConfig()
	cfg.DiskCapacity = 10 << 20       // 10 MB drive for a quick rebuild
	cfg.BWBytesPerS = 2.5 * (1 << 20) // rebuild at 40%: 1 MB/s, 4 s per 4 MB slice
	a := NewArray(cfg)

	if _, done := a.RebuildSlice(0); !done {
		t.Fatal("RebuildSlice on healthy array should be an immediate no-op")
	}

	a.FailDisk(100 * sim.Second)
	now := 100 * sim.Second
	var slices []sim.Time
	for {
		slice, done := a.RebuildSlice(now)
		slices = append(slices, slice)
		now += slice
		if done {
			break
		}
	}
	// 10 MB at 4 MB slices: 4 + 4 + 2.
	if len(slices) != 3 {
		t.Fatalf("rebuild took %d slices, want 3", len(slices))
	}
	if slices[0] != 4*sim.Second || slices[1] != 4*sim.Second || slices[2] != 2*sim.Second {
		t.Fatalf("slice times %v, want [4s 4s 2s]", slices)
	}
	if a.Degraded() || a.Dead() {
		t.Error("array not healthy after completed rebuild")
	}
	st := a.Stats()
	if st.Rebuilds != 1 {
		t.Errorf("Rebuilds = %d, want 1", st.Rebuilds)
	}
	if st.DegradedTime != 10*sim.Second {
		t.Errorf("DegradedTime = %v, want 10s", st.DegradedTime)
	}
}

// Rebuild progress resets if a second drive fails, and a dead array refuses
// service.
func TestSecondFailureKillsArray(t *testing.T) {
	a := NewArray(testArrayConfig())
	a.FailDisk(0)
	a.RebuildSlice(0)
	if a.RebuildProgress() <= 0 {
		t.Fatal("no rebuild progress after a slice")
	}
	a.FailDisk(sim.Second)
	if !a.Dead() {
		t.Fatal("array not dead after second failure")
	}
	if a.RebuildProgress() != 0 {
		t.Error("rebuild progress survives a killing failure")
	}
	defer func() {
		if recover() == nil {
			t.Error("Service on dead array did not panic")
		}
	}()
	a.Service(0, 0, 100, true)
}
