package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHopsManhattan(t *testing.T) {
	m := New(16) // 4x4
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},  // one row down
		{0, 5, 2},  // diagonal neighbor
		{0, 15, 6}, // opposite corner of 4x4
		{3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := New(16) // 4x4
	prop := func(a, b uint8) bool {
		s, d := int(a)%16, int(b)%16
		return m.Hops(s, d) == m.Hops(d, s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostComponents(t *testing.T) {
	m := New(16) // 4x4
	// 0 -> 5: 2 hops; 900 bytes at 90 MB/s = 10 µs.
	got := m.Cost(0, 5, 900)
	want := 70*sim.Microsecond + 2*sim.Microsecond + 10*sim.Microsecond
	if got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestCostMonotoneInSize(t *testing.T) {
	m := New(16) // 4x4
	prop := func(a, b uint16) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.Cost(0, 15, lo) <= m.Cost(0, 15, hi)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferChargesSender(t *testing.T) {
	eng := sim.NewEngine()
	m := New(16) // 4x4
	var charged sim.Time
	eng.Spawn("tx", func(p *sim.Process) {
		charged = m.Transfer(p, 0, 3, 500)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if charged != m.Cost(0, 3, 500) {
		t.Fatalf("charged %v, want %v", charged, m.Cost(0, 3, 500))
	}
	if eng.Now() != charged {
		t.Fatalf("clock %v, want %v", eng.Now(), charged)
	}
	if m.Messages() != 1 || m.Bytes() != 500 {
		t.Fatalf("stats: %d msgs %d bytes", m.Messages(), m.Bytes())
	}
}

func TestBroadcastLogStages(t *testing.T) {
	m := New(16) // 4x4
	// 16 participants -> ceil(log2 16) = 4 stages.
	c16 := m.BroadcastCost(0, 16, 0)
	c2 := m.BroadcastCost(0, 2, 0)
	if c16 != 4*c2 {
		t.Fatalf("16-way broadcast %v, want 4x 2-way %v", c16, c2)
	}
	if m.BroadcastCost(0, 1, 1000) != 0 {
		t.Fatal("self-broadcast should be free")
	}
}

func TestGatherLinearInParticipants(t *testing.T) {
	m := New(16) // 4x4
	c3 := m.GatherCost(0, 3, 100)
	c5 := m.GatherCost(0, 5, 100)
	per := c3 / 2
	if c5 != 4*per {
		t.Fatalf("gather not linear: 3->%v 5->%v", c3, c5)
	}
}

func TestNewCoversNodes(t *testing.T) {
	for _, n := range []int{1, 2, 5, 128, 512, 513} {
		m := New(n)
		if m.Nodes() < n || m.Nodes() >= n+m.cols {
			t.Errorf("New(%d): %dx%d does not fit", n, m.cols, m.rows)
		}
	}
	if m := New(16); m.Nodes() != 16 {
		t.Fatalf("New(16) has %d nodes", m.Nodes())
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestBroadcastAndGatherChargeCaller(t *testing.T) {
	eng := sim.NewEngine()
	m := New(16) // 4x4
	var bcast, gather sim.Time
	eng.Spawn("root", func(p *sim.Process) {
		t0 := p.Now()
		m.Broadcast(p, 0, 16, 1000)
		bcast = p.Now() - t0
		t1 := p.Now()
		m.Gather(p, 0, 16, 100)
		gather = p.Now() - t1
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if bcast != m.BroadcastCost(0, 16, 1000) {
		t.Fatalf("broadcast charged %v, want %v", bcast, m.BroadcastCost(0, 16, 1000))
	}
	if gather != m.GatherCost(0, 16, 100) {
		t.Fatalf("gather charged %v, want %v", gather, m.GatherCost(0, 16, 100))
	}
	// Traffic accounting: 15 messages each way.
	if m.Messages() != 30 {
		t.Fatalf("messages %d", m.Messages())
	}
	if m.Bytes() != 15*1000+15*100 {
		t.Fatalf("bytes %d", m.Bytes())
	}
}

func TestNegativeMessagePanics(t *testing.T) {
	m := New(16) // 4x4
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	m.Cost(0, 1, -1)
}
