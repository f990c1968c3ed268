package disk

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testArrayConfig() ArrayConfig {
	return ArrayConfig{
		DiskCapacity: 1_200_000_000,
		Position:     10 * sim.Millisecond,
		Overhead:     1 * sim.Millisecond,
		BWBytesPerS:  1e6, // 1 byte = 1 µs
	}
}

func TestFirstRequestPaysPositioning(t *testing.T) {
	a := NewArray(testArrayConfig())
	got := a.Service(0, 0, 1000, false)
	want := 10*sim.Millisecond + 1*sim.Millisecond + 1000*sim.Microsecond
	if got != want {
		t.Fatalf("first request %v, want %v", got, want)
	}
}

func TestSequentialSkipsPositioning(t *testing.T) {
	a := NewArray(testArrayConfig())
	a.Service(0, 0, 1000, false)
	got := a.Service(0, 1000, 500, false) // continues where previous ended
	want := 1*sim.Millisecond + 500*sim.Microsecond
	if got != want {
		t.Fatalf("sequential request %v, want %v", got, want)
	}
	st := a.Stats()
	if st.Sequential != 1 {
		t.Fatalf("sequential count %d, want 1", st.Sequential)
	}
}

func TestNonSequentialPaysPositioning(t *testing.T) {
	a := NewArray(testArrayConfig())
	a.Service(0, 0, 1000, false)
	got := a.Service(0, 5000, 500, false) // gap
	want := 10*sim.Millisecond + 1*sim.Millisecond + 500*sim.Microsecond
	if got != want {
		t.Fatalf("random request %v, want %v", got, want)
	}
	// Backwards also pays.
	got = a.Service(0, 0, 100, false)
	want = 10*sim.Millisecond + 1*sim.Millisecond + 100*sim.Microsecond
	if got != want {
		t.Fatalf("backward request %v, want %v", got, want)
	}
}

func TestLargeSequentialApproachesBandwidth(t *testing.T) {
	cfg := testArrayConfig()
	cfg.BWBytesPerS = 10e6
	a := NewArray(cfg)
	const chunk = 64 * 1024
	var total sim.Time
	addr := int64(0)
	for i := 0; i < 100; i++ {
		total += a.Service(0, addr, chunk, false)
		addr += chunk
	}
	bytes := float64(100 * chunk)
	rate := bytes / total.Seconds()
	// One positioning + 100 overheads amortized over 6.4 MB: should land
	// within 20% of the 10 MB/s streaming rate.
	if rate < 8e6 || rate > 10e6 {
		t.Fatalf("sequential rate %.2f MB/s, want ~8-10", rate/1e6)
	}
}

func TestSmallRandomDominatedByPositioning(t *testing.T) {
	a := NewArray(testArrayConfig())
	svc := a.Service(0, 1<<20, 2048, false)
	transfer := 2048 * sim.Microsecond
	if svc < 5*transfer {
		t.Fatalf("small random request should be positioning-dominated: svc=%v transfer=%v", svc, transfer)
	}
}

func TestCapacityExcludesParity(t *testing.T) {
	a := NewArray(testArrayConfig())
	if a.Capacity() != 4*1_200_000_000 {
		t.Fatalf("capacity %d", a.Capacity())
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := NewArray(testArrayConfig())
	a.Service(0, 0, 100, false)
	a.Service(0, 100, 200, false)
	st := a.Stats()
	if st.Requests != 2 || st.Bytes != 300 {
		t.Fatalf("stats %+v", st)
	}
	if st.Busy <= 0 {
		t.Fatal("no busy time accumulated")
	}
}

// Property: service time is always at least overhead + transfer, and exactly
// that when the access is sequential.
func TestServiceTimeLowerBoundProperty(t *testing.T) {
	cfg := testArrayConfig()
	prop := func(addrs []uint16, sizes []uint8) bool {
		a := NewArray(cfg)
		n := len(addrs)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			addr, size := int64(addrs[i]), int64(sizes[i])
			svc := a.Service(0, addr, size, false)
			min := cfg.Overhead + sim.Time(size)*sim.Microsecond
			if svc < min {
				return false
			}
			if svc > min+cfg.Position {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArrayPanics(t *testing.T) {
	for name, cfg := range map[string]ArrayConfig{
		"zero-bw": {BWBytesPerS: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewArray did not panic", name)
				}
			}()
			NewArray(cfg)
		}()
	}
}

func TestNegativeRequestPanics(t *testing.T) {
	a := NewArray(testArrayConfig())
	defer func() {
		if recover() == nil {
			t.Error("negative request did not panic")
		}
	}()
	a.Service(0, -1, 10, false)
}

func TestStreamCacheKeepsConcurrentStreamsSequential(t *testing.T) {
	cfg := testArrayConfig() // StreamCache defaults to min 1; set explicitly
	cfg.StreamCache = 2
	a := NewArray(cfg)
	seq := func(stream, addr int64, n int64) sim.Time { return a.Service(stream, addr, n, false) }
	// Two interleaved streams both stay sequential with a 2-entry cache.
	seq(1, 0, 100)
	seq(2, 1<<20, 100)
	if got := seq(1, 100, 100); got != 1*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("stream 1 lost sequentiality: %v", got)
	}
	if got := seq(2, 1<<20+100, 100); got != 1*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("stream 2 lost sequentiality: %v", got)
	}
}

func TestStreamCacheEvictionForcesPositioning(t *testing.T) {
	cfg := testArrayConfig()
	cfg.StreamCache = 2
	a := NewArray(cfg)
	a.Service(1, 0, 100, false)
	a.Service(2, 1<<20, 100, false)
	a.Service(3, 2<<20, 100, false) // evicts stream 1 (LRU)
	// Stream 1 continues at its old end but was evicted: pays positioning.
	got := a.Service(1, 100, 100, false)
	want := 10*sim.Millisecond + 1*sim.Millisecond + 100*sim.Microsecond
	if got != want {
		t.Fatalf("evicted stream serviced at %v, want %v", got, want)
	}
	// Stream 3 (recently used) is still sequential.
	got = a.Service(3, 2<<20+100, 100, false)
	if got != 1*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("stream 3 lost sequentiality: %v", got)
	}
}

func TestStreamCacheLRUOrder(t *testing.T) {
	cfg := testArrayConfig()
	cfg.StreamCache = 2
	a := NewArray(cfg)
	a.Service(1, 0, 100, false)
	a.Service(2, 1<<20, 100, false)
	a.Service(1, 100, 100, false)   // touch stream 1: now MRU
	a.Service(3, 2<<20, 100, false) // evicts stream 2, not 1
	got := a.Service(1, 200, 100, false)
	if got != 1*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("MRU stream evicted: %v", got)
	}
}

func TestSweepServiceTimeAmortizesPositioning(t *testing.T) {
	cfg := testArrayConfig()
	a := NewArray(cfg)
	// 8 disjoint 2 KB pieces as one sweep: one positioning, one overhead,
	// 7 quarter-overheads, one aggregate transfer.
	got := a.SweepServiceTime(1, 0, 8*2048, 8)
	want := cfg.Position + cfg.Overhead + 7*cfg.Overhead/4 + 8*2048*sim.Microsecond
	if got != want {
		t.Fatalf("sweep %v, want %v", got, want)
	}
	// The same pieces as individual random requests cost far more.
	b := NewArray(cfg)
	var individual sim.Time
	for i := int64(0); i < 8; i++ {
		individual += b.Service(1, i*1<<20, 2048, false)
	}
	if got*2 > individual {
		t.Fatalf("sweep %v not clearly cheaper than %v individually", got, individual)
	}
	if st := a.Stats(); st.Requests != 8 || st.Bytes != 8*2048 {
		t.Fatalf("sweep stats %+v", st)
	}
}

func TestSweepInvalidPanics(t *testing.T) {
	a := NewArray(testArrayConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid sweep did not panic")
		}
	}()
	a.SweepServiceTime(0, 0, 100, 0)
}
