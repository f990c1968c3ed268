package pfs

import (
	"testing"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// repairRig builds a rig with replication factor rf and the repair daemon on.
func repairRig(t *testing.T, rf int, mut func(*Config)) *testRig {
	t.Helper()
	return newRig(t, func(c *Config) {
		c.Failover = DefaultFailoverConfig()
		c.Replication = ReplicationConfig{Factor: rf, Repair: DefaultRepairConfig()}
		if mut != nil {
			mut(c)
		}
	})
}

// repairBacklog returns the redirect-ledger depth (0 with repair disabled).
func repairBacklog(fs *FileSystem) int {
	if fs.rep == nil {
		return 0
	}
	return fs.rep.queue.Len()
}

// A mirror write that cannot reach its down target enters the redirect
// ledger, and once the node returns the daemon re-replicates the chunk and
// drains the ledger to empty.
func TestRepairDrainsMirrorMiss(t *testing.T) {
	r := repairRig(t, 2, nil)
	if _, err := r.fs.Preload("f", 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[2].Fail(p)
		p.Sleep(800 * sim.Millisecond)
		r.fs.IONodes()[2].Restore(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		// File id 1 starts at node 1: chunk 0's primary is node 1 and its
		// mirror target node 2 is down.
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, 64<<10); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	})
	st := r.fs.RepairStats()
	if st.MirrorMisses != 1 {
		t.Errorf("MirrorMisses = %d, want 1", st.MirrorMisses)
	}
	if st.ChunksRepaired != 1 || st.BytesRepaired != 64<<10 {
		t.Errorf("repaired %d chunks / %d bytes, want 1 / %d", st.ChunksRepaired, st.BytesRepaired, 64<<10)
	}
	if st.LedgerPuts != st.LedgerDrains || repairBacklog(r.fs) != 0 {
		t.Errorf("ledger not drained: puts=%d drains=%d backlog=%d",
			st.LedgerPuts, st.LedgerDrains, repairBacklog(r.fs))
	}
	if st.Abandoned != 0 {
		t.Errorf("Abandoned = %d, want 0", st.Abandoned)
	}
	if st.RedundancyRestoredAt == 0 {
		t.Error("RedundancyRestoredAt never stamped")
	}
	// The repaired copy verifies: after the run, a read that is forced onto
	// the replica (primary down again) succeeds.
	r2 := r // the engine has drained; spawn a fresh probe run
	r2.eng.Spawn("probe", func(p *sim.Process) {
		r2.fs.IONodes()[1].Fail(p)
		if _, err := r2.fs.Access(p, 0, "f", iotrace.OpRead, 0, 64<<10); err != nil {
			t.Errorf("read from repaired replica: %v", err)
		}
		r2.fs.IONodes()[1].Restore(p)
	})
	if err := r2.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// A write whose primary is down lands sloppily on a replica; the ledger
// records the stale primary copy and the daemon restores it from the replica.
func TestRepairRestoresSloppyWrite(t *testing.T) {
	r := repairRig(t, 2, nil)
	if _, err := r.fs.Preload("f", 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[1].Fail(p)
		p.Sleep(800 * sim.Millisecond)
		r.fs.IONodes()[1].Restore(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		// Chunk 0's primary node 1 is down: the write reroutes to copy 1 on
		// node 2 and the primary copy becomes stale.
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, 64<<10); err != nil {
			t.Fatalf("write during primary outage: %v", err)
		}
	})
	st := r.fs.RepairStats()
	if st.SloppyWrites != 1 {
		t.Errorf("SloppyWrites = %d, want 1", st.SloppyWrites)
	}
	if st.ChunksRepaired != 1 {
		t.Errorf("ChunksRepaired = %d, want 1 (the stale primary copy)", st.ChunksRepaired)
	}
	if repairBacklog(r.fs) != 0 {
		t.Errorf("backlog %d after drain", repairBacklog(r.fs))
	}
	// After repair the primary copy answers reads again.
	r.eng.Spawn("probe", func(p *sim.Process) {
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpRead, 0, 64<<10); err != nil {
			t.Errorf("read after primary repair: %v", err)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// At RF=3, a single node outage leaves two live copies; every chunk whose
// group touches the down node acquires exactly one ledger entry, and all of
// them are repaired.
func TestRepairAtRF3(t *testing.T) {
	r := repairRig(t, 3, nil)
	if _, err := r.fs.Preload("f", 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[2].Fail(p)
		p.Sleep(800 * sim.Millisecond)
		r.fs.IONodes()[2].Restore(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		// 4 chunks, primaries 1,2,3,0. Node 2 holds copy 0 of chunk 1,
		// copy 1 of chunk 0, copy 2 of chunk 3: one sloppy write + two
		// mirror misses.
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, failoverFile); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	})
	st := r.fs.RepairStats()
	if st.SloppyWrites != 1 || st.MirrorMisses != 2 {
		t.Errorf("sloppy=%d misses=%d, want 1 and 2", st.SloppyWrites, st.MirrorMisses)
	}
	// The sloppy write stales rf-1 = 2 copies; each mirror miss is 1 entry.
	if st.LedgerPuts != 4 || st.ChunksRepaired != 4 {
		t.Errorf("puts=%d repaired=%d, want 4 and 4", st.LedgerPuts, st.ChunksRepaired)
	}
	if repairBacklog(r.fs) != 0 || st.Abandoned != 0 {
		t.Errorf("backlog=%d abandoned=%d after drain", repairBacklog(r.fs), st.Abandoned)
	}
}

// The bandwidth throttle stretches the drain: the daemon sleeps
// chunk/bandwidth per repaired chunk and accounts the sleep.
func TestRepairBandwidthThrottle(t *testing.T) {
	elapsed := func(bw float64) (sim.Time, RepairStats) {
		r := repairRig(t, 2, func(c *Config) {
			c.Replication.Repair.BandwidthBytesPerS = bw
		})
		if _, err := r.fs.Preload("f", 0); err != nil {
			t.Fatal(err)
		}
		r.eng.Spawn("chaos", func(p *sim.Process) {
			r.fs.IONodes()[1].Fail(p)
			p.Sleep(400 * sim.Millisecond)
			r.fs.IONodes()[1].Restore(p)
		})
		r.run(t, func(p *sim.Process) {
			p.Sleep(sim.Millisecond)
			if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, failoverFile); err != nil {
				t.Fatal(err)
			}
		})
		return r.eng.Now(), r.fs.RepairStats()
	}
	fastEnd, fast := elapsed(0)       // unthrottled
	slowEnd, slow := elapsed(1 << 20) // 1 MB/s: >= 64 ms per 64 KB chunk
	if fast.ChunksRepaired == 0 || slow.ChunksRepaired != fast.ChunksRepaired {
		t.Fatalf("repaired fast=%d slow=%d", fast.ChunksRepaired, slow.ChunksRepaired)
	}
	if fast.ThrottleTime != 0 {
		t.Errorf("unthrottled ThrottleTime = %v", fast.ThrottleTime)
	}
	wantSleep := sim.FromSeconds(float64(slow.BytesRepaired) / float64(1<<20))
	if slow.ThrottleTime != wantSleep {
		t.Errorf("ThrottleTime = %v, want %v", slow.ThrottleTime, wantSleep)
	}
	if slowEnd <= fastEnd {
		t.Errorf("throttled run ended at %v, unthrottled at %v", slowEnd, fastEnd)
	}
}

// GiveUp bounds a hopeless backlog: entries still blocked past the age limit
// are abandoned (surfacing as permanently lost redundancy) and the daemon
// still exits so the run completes.
func TestRepairGiveUpAbandons(t *testing.T) {
	r := repairRig(t, 2, func(c *Config) {
		c.Replication.Repair.GiveUp = 200 * sim.Millisecond
	})
	if _, err := r.fs.Preload("f", 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[1].Fail(p)
		p.Sleep(2 * sim.Second) // far past GiveUp
		r.fs.IONodes()[1].Restore(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, 64<<10); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	})
	st := r.fs.RepairStats()
	if st.Abandoned == 0 {
		t.Errorf("Abandoned = 0, want the aged-out entry given up")
	}
	if st.ChunksRepaired != 0 {
		t.Errorf("ChunksRepaired = %d, want 0", st.ChunksRepaired)
	}
	if repairBacklog(r.fs) != 0 {
		t.Errorf("backlog %d, want empty after abandoning", repairBacklog(r.fs))
	}
}

// Capped mirrors the incident-timeline convention: outage windows scheduled
// past the app's completion must not widen the reported vulnerability.
func TestRepairStatsCapped(t *testing.T) {
	base := RepairStats{
		FirstVulnerableAt:    sim.FromSeconds(2),
		LastOutageEndAt:      sim.FromSeconds(500),
		RedundancyRestoredAt: sim.FromSeconds(3),
	}
	capped := base.Capped(sim.FromSeconds(10))
	if got, want := capped.LastOutageEndAt, sim.FromSeconds(10); got != want {
		t.Errorf("LastOutageEndAt = %v, want clamped to %v", got, want)
	}
	if got, want := capped.WindowOfVulnerability(), sim.FromSeconds(8); got != want {
		t.Errorf("WindowOfVulnerability = %v, want %v", got, want)
	}
	// A repair tail after completion is legitimate and stays uncapped.
	base.RedundancyRestoredAt = sim.FromSeconds(12)
	if got, want := base.Capped(sim.FromSeconds(10)).WindowOfVulnerability(), sim.FromSeconds(10); got != want {
		t.Errorf("WindowOfVulnerability with repair tail = %v, want %v", got, want)
	}
	// Vulnerability that only began after the app finished reports as none.
	late := RepairStats{
		FirstVulnerableAt: sim.FromSeconds(20),
		LastOutageEndAt:   sim.FromSeconds(21),
	}
	if got := late.Capped(sim.FromSeconds(10)).WindowOfVulnerability(); got != 0 {
		t.Errorf("post-completion-only WindowOfVulnerability = %v, want 0", got)
	}
}

// With repair disabled (the default), outage writes behave exactly as before
// this subsystem existed: misses are not tracked and no daemon runs.
func TestRepairDisabledIsInert(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Failover = DefaultFailoverConfig()
		c.Replication.Factor = 2
	})
	if r.fs.RepairEnabled() {
		t.Fatal("repair enabled without being configured")
	}
	if _, err := r.fs.Preload("f", 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[1].Fail(p)
		p.Sleep(400 * sim.Millisecond)
		r.fs.IONodes()[1].Restore(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, 64<<10); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	})
	if st := r.fs.RepairStats(); st != (RepairStats{}) {
		t.Errorf("stats %+v with repair disabled", st)
	}
}

// Replicated writes at RF=3 mirror each chunk twice, with each copy's
// traffic tagged by its own stream/address so RF>2 copies never collide.
func TestMirrorWritesAtRF3(t *testing.T) {
	r := repairRig(t, 3, nil)
	if _, err := r.fs.Preload("f", 0); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Process) {
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, failoverFile); err != nil {
			t.Fatal(err)
		}
	})
	if fo := r.fs.FailoverStats(); fo.MirrorWrites != 8 {
		t.Errorf("MirrorWrites = %d, want 8 (two per chunk)", fo.MirrorWrites)
	}
	// Each node carries its primary chunk plus two replica copies.
	for i, ion := range r.fs.IONodes() {
		if _, bytes := ion.Stats(); bytes != 3*64<<10 {
			t.Errorf("node %d carries %d bytes, want %d", i, bytes, 3*64<<10)
		}
	}
}

// The any-replica read policy spreads healthy replicated reads across copies
// while leaving the file image intact.
func TestAnyReplicaReadsSpread(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Failover = DefaultFailoverConfig()
		c.Replication = ReplicationConfig{Factor: 2, ReadPolicy: ReadAnyReplica}
	})
	if _, err := r.fs.Preload("f", failoverFile); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Process) {
		// Write first so both copies exist, then read everything back.
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, failoverFile); err != nil {
			t.Fatal(err)
		}
		if n, err := r.fs.Access(p, 0, "f", iotrace.OpRead, 0, failoverFile); err != nil || n != failoverFile {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
	})
	if fo := r.fs.FailoverStats(); fo.Failed != 0 {
		t.Errorf("Failed = %d", fo.Failed)
	}
}
