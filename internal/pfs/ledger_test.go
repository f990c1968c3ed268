package pfs

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/iotrace"
	"repro/internal/race"
	"repro/internal/sim"
)

// ledgerOutageFile spans 32 stripe chunks, eight per I/O node.
const ledgerOutageFile = int64(2 << 20)

// ledgerOutage writes ledgerOutageFile at RF=2 while I/O nodes 1 and 3 are
// down, restores node 1 after 2 s and node 3 after long. The write leaves
// ledger entries bound for both nodes: those for node 1 drain once it
// returns, and those for node 3 stay blocked, cycling through the ledger once per
// stalled poll, for the rest of the outage. watch, when set, runs in its own
// process alongside.
func ledgerOutage(t *testing.T, long sim.Time, watch func(r *testRig, p *sim.Process)) *testRig {
	r := repairRig(t, 2, nil)
	if _, err := r.fs.Preload("f", 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		ion := r.fs.IONodes()
		ion[1].Fail(p)
		ion[3].Fail(p)
		p.Sleep(2 * sim.Second)
		ion[1].Restore(p)
		p.Sleep(long - 2*sim.Second)
		ion[3].Restore(p)
	})
	if watch != nil {
		r.eng.Spawn("watch", func(p *sim.Process) { watch(r, p) })
	}
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, ledgerOutageFile); err != nil {
			t.Errorf("write during outage: %v", err)
		}
	})
	return r
}

// TestRepairLedgerOrderAcrossLongOutage pins the order in which a blocked
// ledger's entries are repaired across a 30 s outage, and the counters the
// drain leaves behind. Blocked entries cycle to the back of the ledger on
// every pass, so the order after the outage depends on how the ledger is
// rotated; any change to that bookkeeping must leave this order alone.
func TestRepairLedgerOrderAcrossLongOutage(t *testing.T) {
	var order []string
	watch := func(r *testRig, p *sim.Process) {
		// Sample the ledger's keys every millisecond (a repaired chunk costs
		// at least its ~2 ms throttle sleep) and log each key as it leaves,
		// as target node, copy index and 64 KB chunk address.
		seen := map[repairKey]bool{}
		for {
			gone := []repairKey{}
			for k := range seen {
				if _, ok := r.fs.rep.keys[k]; !ok {
					gone = append(gone, k)
					delete(seen, k)
				}
			}
			sort.Slice(gone, func(i, j int) bool {
				if gone[i].target != gone[j].target {
					return gone[i].target < gone[j].target
				}
				return gone[i].addr < gone[j].addr
			})
			for _, k := range gone {
				base, c := splitReplicaAddr(k.addr)
				order = append(order, fmt.Sprintf("n%d/c%d@%d", k.target, c, base>>16))
			}
			for k := range r.fs.rep.keys {
				seen[k] = true
			}
			if p.Now() > 40*sim.Second && len(seen) == 0 {
				return
			}
			p.Sleep(sim.Millisecond)
		}
	}
	r := ledgerOutage(t, 30*sim.Second, watch)
	want := []string{
		// Node 1 returns at 2 s: its entries drain while node 3's cycle.
		"n1/c1@262146", "n1/c0@262147", "n1/c1@262147", "n1/c1@262145",
		"n1/c1@262144", "n1/c0@262148", "n1/c0@262144", "n1/c1@262148",
		"n1/c0@262146", "n1/c0@262149", "n1/c0@262145",
		// Node 3 returns at 30 s, after ~280 stalled polls.
		"n3/c0@262149", "n3/c1@262144", "n3/c1@262147", "n3/c0@262144",
		"n3/c0@262145", "n3/c0@262147", "n3/c1@262150", "n3/c1@262148",
		"n3/c0@262150", "n3/c0@262148", "n3/c1@262151", "n3/c1@262146",
		"n3/c1@262149", "n3/c0@262146", "n3/c0@262151", "n3/c1@262145",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("repair order\n got %q\nwant %q", order, want)
	}
	st := r.fs.RepairStats()
	if st.LedgerPeak != 22 || st.ChunksRepaired != 27 {
		t.Errorf("LedgerPeak=%d ChunksRepaired=%d, want 22 and 27", st.LedgerPeak, st.ChunksRepaired)
	}
	if st.ThrottleTime != 52731*sim.Microsecond {
		t.Errorf("ThrottleTime = %v, want 0.052731s", st.ThrottleTime)
	}
	if st.RedundancyRestoredAt != 30848474*sim.Microsecond {
		t.Errorf("RedundancyRestoredAt = %v, want 30.848474s", st.RedundancyRestoredAt)
	}
	if st.Sweeps != 1 || st.LedgerDrains != st.LedgerPuts || repairBacklog(r.fs) != 0 {
		t.Errorf("sweeps=%d puts=%d drains=%d backlog=%d, want one sweep that drains the ledger",
			st.Sweeps, st.LedgerPuts, st.LedgerDrains, repairBacklog(r.fs))
	}
}

// TestRepairLedgerAllocCeiling pins the stalled poll at zero allocations:
// stretching the blocked outage from 30 s to 60 s adds 300 polls, each
// cycling every blocked entry through the ledger once, and must add no
// allocation.
func TestRepairLedgerAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	allocs := func(long sim.Time) float64 {
		return testing.AllocsPerRun(3, func() { ledgerOutage(t, long, nil) })
	}
	short, long := allocs(30*sim.Second), allocs(60*sim.Second)
	polls := float64(30*sim.Second) / float64(repairStallPoll)
	perPoll := (long - short) / polls
	t.Logf("%.0f allocations at 30 s, %.0f at 60 s: %.3f per stalled poll", short, long, perPoll)
	if perPoll > 0.01 {
		t.Fatalf("a stalled repair poll allocated %.3f times; want 0", perPoll)
	}
}
