package pfs

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/iotrace"
	"repro/internal/sim"
)

func cacheOn() cache.Config { return cache.DefaultConfig() }

// timeFileIO writes and reads one striped file and returns the simulated
// finish instant.
func timeFileIO(t *testing.T, mut func(*Config)) sim.Time {
	t.Helper()
	r := newRig(t, mut)
	var end sim.Time
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(p, 1<<20); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Seek(p, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Read(p, 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(p); err != nil {
			t.Fatal(err)
		}
		end = p.Now()
	})
	return end
}

func TestZeroNodeConfigsMatchHomogeneous(t *testing.T) {
	base := timeFileIO(t, nil)
	hetero := timeFileIO(t, func(c *Config) {
		c.Nodes = make([]NodeConfig, c.IONodes) // all-zero overrides
	})
	if base != hetero {
		t.Fatalf("zero-value NodeConfigs changed timing: %v vs %v", base, hetero)
	}
}

func TestSlowNodeOverrideSlowsTheRun(t *testing.T) {
	base := timeFileIO(t, nil)
	slow := timeFileIO(t, func(c *Config) {
		c.Nodes = make([]NodeConfig, c.IONodes)
		d := DefaultConfig().Disk
		d.BWBytesPerS /= 10
		c.Nodes[1] = NodeConfig{Disk: &d, Template: "slow"}
	})
	if slow <= base {
		t.Fatalf("slow-disk override did not slow the run: base %v, slow %v", base, slow)
	}
}

func TestFastNodeOverrideSpeedsTheRun(t *testing.T) {
	base := timeFileIO(t, nil)
	fast := timeFileIO(t, func(c *Config) {
		c.Nodes = make([]NodeConfig, c.IONodes)
		for i := range c.Nodes {
			d := DefaultConfig().Disk
			d.BWBytesPerS *= 10
			d.Position /= 5
			c.Nodes[i] = NodeConfig{Disk: &d, Template: "fast"}
		}
	})
	if fast >= base {
		t.Fatalf("fast-disk overrides did not speed the run: base %v, fast %v", base, fast)
	}
}

// TestFlushDrainsCachedFile writes a cached RF=1 file with write-behind
// and flushes it before the flush daemon's first pass: dirty blocks are
// left on the nodes before Flush and none on any node after it, so Flush
// drains the stream the file's writes were cached on.
func TestFlushDrainsCachedFile(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Cache = cacheOn() })
	dirty := func() int {
		n := 0
		for _, ion := range r.fs.IONodes() {
			n += ion.Cache().DirtyLen()
		}
		return n
	}
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(p, 1<<20); err != nil {
			t.Fatal(err)
		}
		if dirty() == 0 {
			t.Fatal("write-behind left no dirty block to flush")
		}
		if err := h.Flush(p); err != nil {
			t.Fatal(err)
		}
		if n := dirty(); n != 0 {
			t.Fatalf("%d dirty blocks left on the nodes after Flush", n)
		}
		if err := h.Close(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPerNodeCacheCapacityOverride(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Cache = cacheOn()
		c.Nodes = make([]NodeConfig, c.IONodes)
		c.Nodes[2] = NodeConfig{CacheBytes: 1 << 20}
	})
	caps := make([]int64, 0, 4)
	for _, n := range r.fs.IONodes() {
		caps = append(caps, n.Cache().Config().CapacityBytes)
	}
	want := cacheOn().CapacityBytes
	for i, c := range caps {
		if i == 2 {
			if c != 1<<20 {
				t.Fatalf("node 2 capacity %d, want %d", c, 1<<20)
			}
		} else if c != want {
			t.Fatalf("node %d capacity %d, want default %d", i, c, want)
		}
	}
}

func TestConfigValidateNodeMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = make([]NodeConfig, 3)
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "3 per-node configs for 16 I/O nodes") {
		t.Fatalf("want per-node count mismatch error, got %v", err)
	}

	cfg = DefaultConfig()
	cfg.Nodes = make([]NodeConfig, cfg.IONodes)
	cfg.Nodes[0].CacheBytes = 1 << 20
	err = cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "cache tier is disabled") {
		t.Fatalf("want cache-disabled error, got %v", err)
	}

	cfg = DefaultConfig()
	cfg.Nodes = make([]NodeConfig, cfg.IONodes)
	bad := disk.ArrayConfig{BWBytesPerS: 0}
	cfg.Nodes[4] = NodeConfig{Disk: &bad, Template: "tiny"}
	err = cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "node 4 (template tiny)") {
		t.Fatalf("want per-node bandwidth error, got %v", err)
	}
}

func TestZonesAndHeterogeneous(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Zones(); len(got) != 16 || got[0] != 0 {
		t.Fatalf("zones %v", got)
	}
	cfg.Nodes = make([]NodeConfig, cfg.IONodes)
	for i := range cfg.Nodes {
		cfg.Nodes[i].Zone = i / 4
	}
	z := cfg.Zones()
	if z[0] != 0 || z[15] != 3 {
		t.Fatalf("zones %v", z)
	}
}
