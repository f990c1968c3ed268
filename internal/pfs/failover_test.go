package pfs

import (
	"errors"
	"testing"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

const failoverFile = int64(256 << 10) // 4 stripes: one chunk per I/O node

// With failover disabled (the paper-faithful default), a transfer whose I/O
// node is down fails immediately with ErrIONodeDown.
func TestFailoverDisabledFailsFast(t *testing.T) {
	r := newRig(t, nil)
	if _, err := r.fs.Preload("f", failoverFile); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[1].Fail(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		_, err := r.fs.Access(p, 0, "f", iotrace.OpRead, 0, failoverFile)
		if !errors.Is(err, ErrIONodeDown) {
			t.Errorf("read with node down: %v, want ErrIONodeDown", err)
		}
	})
	if fo := r.fs.FailoverStats(); fo.Failed == 0 || fo.Retries != 0 {
		t.Errorf("stats %+v: want Failed > 0 and no retries", fo)
	}
}

// With failover + replication enabled, a read whose primary node is down
// reroutes to the replica stripe after the detection timeout and one backoff,
// and the request succeeds.
func TestFailoverReroutesToReplica(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Failover = DefaultFailoverConfig()
		c.Replication.Factor = 2
	})
	if _, err := r.fs.Preload("f", failoverFile); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[1].Fail(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		n, err := r.fs.Access(p, 0, "f", iotrace.OpRead, 0, failoverFile)
		if err != nil {
			t.Fatalf("read with failover: %v", err)
		}
		if n != failoverFile {
			t.Fatalf("read %d bytes, want %d", n, failoverFile)
		}
	})
	fo := r.fs.FailoverStats()
	if fo.Timeouts == 0 || fo.Reroutes == 0 {
		t.Errorf("stats %+v: want timeouts and reroutes", fo)
	}
	if fo.BackoffTime < failoverDetectTimeout {
		t.Errorf("BackoffTime %v below detection timeout", fo.BackoffTime)
	}
	if down := r.fs.IONodes()[1].FaultStats(); down.Failures != 1 || down.Rejected == 0 {
		t.Errorf("ionode fault stats %+v", down)
	}
}

// Without a replica the policy retries the primary; if the outage ends inside
// the backoff window the transfer completes on the original node.
func TestFailoverRetriesPrimaryUntilRestored(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Failover = DefaultFailoverConfig()
	})
	if _, err := r.fs.Preload("f", failoverFile); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("chaos", func(p *sim.Process) {
		r.fs.IONodes()[1].Fail(p)
		p.Sleep(200 * sim.Millisecond)
		r.fs.IONodes()[1].Restore(p)
	})
	r.run(t, func(p *sim.Process) {
		p.Sleep(sim.Millisecond)
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpRead, 0, failoverFile); err != nil {
			t.Fatalf("read spanning outage: %v", err)
		}
	})
	fo := r.fs.FailoverStats()
	if fo.Retries == 0 {
		t.Error("no retries recorded")
	}
	if fo.Reroutes != 0 {
		t.Errorf("Reroutes = %d without replication", fo.Reroutes)
	}
	if fo.Failed != 0 {
		t.Errorf("Failed = %d, want 0", fo.Failed)
	}
	if ds := r.fs.IONodes()[1].FaultStats(); ds.DownTime != 200*sim.Millisecond {
		t.Errorf("DownTime = %v, want 200ms", ds.DownTime)
	}
}

// Replicated writes mirror each chunk to the neighbouring node.
func TestReplicatedWritesMirror(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Failover = DefaultFailoverConfig()
		c.Replication.Factor = 2
	})
	r.run(t, func(p *sim.Process) {
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, failoverFile); err == nil {
			t.Error("Access write on missing file should fail")
		}
		if _, err := r.fs.Preload("f", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, 0, failoverFile); err != nil {
			t.Fatalf("write: %v", err)
		}
	})
	if fo := r.fs.FailoverStats(); fo.MirrorWrites != 4 {
		t.Errorf("MirrorWrites = %d, want 4 (one per chunk)", fo.MirrorWrites)
	}
}

// With no faults injected, enabling failover (without replication) must leave
// the simulated timeline bit-identical to the failover-disabled baseline.
func TestHealthyPathBitIdentical(t *testing.T) {
	elapsed := func(mut func(*Config)) sim.Time {
		r := newRig(t, mut)
		if _, err := r.fs.Preload("f", failoverFile); err != nil {
			t.Fatal(err)
		}
		r.run(t, func(p *sim.Process) {
			if _, err := r.fs.Access(p, 0, "f", iotrace.OpRead, 0, failoverFile); err != nil {
				t.Fatal(err)
			}
			if _, err := r.fs.Access(p, 0, "f", iotrace.OpWrite, failoverFile, 128<<10); err != nil {
				t.Fatal(err)
			}
		})
		return r.eng.Now()
	}
	base := elapsed(nil)
	withFO := elapsed(func(c *Config) { c.Failover = DefaultFailoverConfig() })
	if base != withFO {
		t.Errorf("healthy timeline differs: disabled %v, failover %v", base, withFO)
	}
}
