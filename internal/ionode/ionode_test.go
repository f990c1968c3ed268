package ionode

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

func cfg() disk.ArrayConfig {
	return disk.ArrayConfig{
		DiskCapacity: 1 << 30,
		Position:     10 * sim.Millisecond,
		Overhead:     0,
		BWBytesPerS:  1e6,
	}
}

func TestRequestsQueueFIFO(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, 0, cfg())
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		eng.SpawnAt(fmt.Sprintf("c%d", i), sim.Time(i)*sim.Microsecond, func(p *sim.Process) {
			n.Do(p, 0, int64(i)*1<<20, 1000, false) // distinct, non-sequential addresses
			order = append(order, i)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	req, bytes := n.Stats()
	if req != 4 || bytes != 4000 {
		t.Fatalf("stats %d req %d bytes", req, bytes)
	}
}

func TestContentionInflatesLatency(t *testing.T) {
	// One client alone vs. 8 clients at once: the 8th should see ~8x the
	// service time of a lone request, since the array serializes.
	lone := func() sim.Time {
		eng := sim.NewEngine()
		n := New(eng, 0, cfg())
		var d sim.Time
		eng.Spawn("c", func(p *sim.Process) { d, _ = n.Do(p, 0, 1<<20, 1000, false) })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}()

	eng := sim.NewEngine()
	n := New(eng, 0, cfg())
	var worst sim.Time
	for i := 0; i < 8; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Process) {
			d, _ := n.Do(p, 0, int64(i)*1<<20, 1000, false)
			if d > worst {
				worst = d
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if worst < 7*lone {
		t.Fatalf("worst contended latency %v, want >= 7x lone %v", worst, lone)
	}
}

func TestSyncChargesCost(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, 3, cfg())
	var d sim.Time
	eng.Spawn("c", func(p *sim.Process) { d, _ = n.Sync(p, 5*sim.Millisecond) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d != 5*sim.Millisecond {
		t.Fatalf("sync cost %v", d)
	}
	if n.ID() != 3 {
		t.Fatalf("id %d", n.ID())
	}
}

func TestDoSweepCheaperThanIndividualRequests(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, 0, cfg())
	var sweep, individual sim.Time
	eng.Spawn("c", func(p *sim.Process) {
		sweep, _ = n.DoSweep(p, 1, 0, 8*2048, 8)
		for i := int64(0); i < 8; i++ {
			d, _ := n.Do(p, 2, 1<<20+i*1<<19, 2048, false)
			individual += d
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sweep*2 > individual {
		t.Fatalf("sweep %v not clearly cheaper than %v", sweep, individual)
	}
	req, bytes := n.Stats()
	if req != 16 || bytes != 16*2048 {
		t.Fatalf("stats %d req %d bytes", req, bytes)
	}
	if n.Array() == nil || n.Array().Stats().Requests != 16 {
		t.Fatal("array accessor")
	}
}
