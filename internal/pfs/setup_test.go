package pfs

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/iotrace"
	"repro/internal/race"
	"repro/internal/sim"
)

func TestPreloadCreatesFileWithoutCostOrEvents(t *testing.T) {
	r := newRig(t, nil)
	info, err := r.fs.Preload("terrain", 5<<20)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 5<<20 || info.ID != 1 {
		t.Fatalf("info %+v", info)
	}
	if len(r.rec.events) != 0 {
		t.Fatal("preload emitted events")
	}
	if _, err := r.fs.Preload("terrain", 1); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate preload: %v", err)
	}
	if _, err := r.fs.Preload("bad", -1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative preload: %v", err)
	}
	// The preloaded file opens and reads normally.
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Open(p, 0, "terrain", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := h.Read(p, 1<<20); err != nil || n != 1<<20 {
			t.Fatalf("read preloaded: n=%d err=%v", n, err)
		}
	})
}

func TestReserveIDsAlignsFileIDs(t *testing.T) {
	r := newRig(t, nil)
	r.fs.ReserveIDs(8)
	info, err := r.fs.Preload("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != 9 {
		t.Fatalf("id %d, want 9", info.ID)
	}
}

func TestSetIOModeSwitchesToRecord(t *testing.T) {
	r := newRig(t, nil)
	const rec = 1000
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "q", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		// Write node 0's region via M_UNIX, as ESCAT does.
		if _, err := h.Write(p, 3*rec); err != nil {
			t.Fatal(err)
		}
		if err := h.SetIOMode(p, iotrace.ModeRecord, rec); err != nil {
			t.Fatal(err)
		}
		// Node 0's first record is record 0 -> offset 0.
		if n, err := h.Read(p, rec); err != nil || n != rec {
			t.Fatalf("record read: n=%d err=%v", n, err)
		}
		if h.Offset() != rec {
			t.Fatalf("offset %d", h.Offset())
		}
		if h.Mode() != iotrace.ModeRecord {
			t.Fatalf("mode %v", h.Mode())
		}
	})
	// Opens counted once despite the mode switch.
	if r.fs.OpCount(iotrace.OpOpen) != 1 {
		t.Fatalf("opens %d", r.fs.OpCount(iotrace.OpOpen))
	}
}

func TestSetIOModeValidation(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if err := h.SetIOMode(p, iotrace.ModeRecord, 0); !errors.Is(err, ErrBadRequest) {
			t.Errorf("record without length: %v", err)
		}
		if err := h.SetIOMode(p, iotrace.ModeUnix, 100); !errors.Is(err, ErrBadRequest) {
			t.Errorf("length without record: %v", err)
		}
		if err := h.SetIOMode(p, iotrace.ModeNone, 0); err == nil {
			t.Error("ModeNone accepted")
		}
		h.Close(p)
		if err := h.SetIOMode(p, iotrace.ModeLog, 0); !errors.Is(err, ErrClosed) {
			t.Errorf("closed handle: %v", err)
		}
	})
}

func TestBufferedWritesCoalescePhysicalTransfers(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Cost.WriteBufferBytes = 64 * 1024
	})
	var perWrite []sim.Time
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "buf", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		// 40 sequential 2 KB writes = 80 KB: exactly one 64 KB physical
		// transfer mid-stream, 16 KB residue left buffered.
		for i := 0; i < 40; i++ {
			t0 := p.Now()
			if _, err := h.Write(p, 2048); err != nil {
				t.Fatal(err)
			}
			perWrite = append(perWrite, p.Now()-t0)
		}
		info, _ := r.fs.Stat("buf")
		if info.Size != 40*2048 {
			t.Fatalf("size %d before drain", info.Size)
		}
		if err := h.Close(p); err != nil { // drains residue
			t.Fatal(err)
		}
	})
	cheap := 0
	for _, d := range perWrite {
		if d < 2*sim.Millisecond {
			cheap++
		}
	}
	if cheap < 38 {
		t.Fatalf("only %d/40 writes were buffered-cheap", cheap)
	}
	// Physical bytes reached the I/O nodes after the close drain.
	var bytes int64
	for _, ion := range r.fs.IONodes() {
		_, b := ion.Stats()
		bytes += b
	}
	if bytes != 40*2048 {
		t.Fatalf("physical bytes %d, want %d", bytes, 40*2048)
	}
	// Trace still shows 40 logical writes.
	if r.fs.OpCount(iotrace.OpWrite) != 40 {
		t.Fatalf("write events %d", r.fs.OpCount(iotrace.OpWrite))
	}
}

func TestBufferedWriteLargeRequestsBypass(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Cost.WriteBufferBytes = 64 * 1024
	})
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		t0 := p.Now()
		if _, err := h.Write(p, 80*1024); err != nil { // >= buffer: direct
			t.Fatal(err)
		}
		if p.Now()-t0 < 5*sim.Millisecond {
			t.Fatal("large write did not pay physical cost")
		}
	})
	var bytes int64
	for _, ion := range r.fs.IONodes() {
		_, b := ion.Stats()
		bytes += b
	}
	if bytes != 80*1024 {
		t.Fatalf("physical bytes %d", bytes)
	}
}

func TestBufferedWriteDrainedBySeekAndRead(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Cost.WriteBufferBytes = 64 * 1024
	})
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 2048) // buffered
		if _, err := h.Seek(p, 0, SeekStart); err != nil {
			t.Fatal(err)
		}
		var phys int64
		for _, ion := range r.fs.IONodes() {
			_, b := ion.Stats()
			phys += b
		}
		if phys != 2048 {
			t.Fatalf("seek did not drain: %d physical bytes", phys)
		}
		if n, err := h.Read(p, 2048); err != nil || n != 2048 {
			t.Fatalf("read back: n=%d err=%v", n, err)
		}
	})
}

func TestBufferedNonSequentialWriteDrainsFirst(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Cost.WriteBufferBytes = 64 * 1024
	})
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 2048)
		h.Seek(p, 100_000, SeekStart) // drains 2048
		h.Write(p, 2048)              // buffered at new position
		h.Close(p)                    // drains second chunk
	})
	var phys int64
	for _, ion := range r.fs.IONodes() {
		_, b := ion.Stats()
		phys += b
	}
	if phys != 4096 {
		t.Fatalf("physical bytes %d, want 4096", phys)
	}
	info, _ := r.fs.Stat("f")
	if info.Size != 102_048 {
		t.Fatalf("size %d", info.Size)
	}
}

// Property: WriteGather conserves bytes (sum of extents in, bytes reported
// out) and extends the file to the maximum extent end, for arbitrary
// disjoint extents.
func TestWriteGatherConservationProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		r := newRig(t, nil)
		if _, err := r.fs.Preload("g", 0); err != nil {
			return false
		}
		var extents []Extent
		var want, maxEnd int64
		for _, v := range raw {
			start := int64(v) * 8192 // disjoint by construction
			n := int64(v%7)*512 + 64
			extents = append(extents, Extent{Start: start, End: start + n})
			want += n
			if start+n > maxEnd {
				maxEnd = start + n
			}
		}
		var got int64
		var sweeps int
		ok := true
		r.eng.Spawn("g", func(p *sim.Process) {
			n, s, err := r.fs.WriteGather(p, 0, "g", extents)
			if err != nil {
				ok = false
				return
			}
			got, sweeps = n, s
		})
		if err := r.eng.Run(); err != nil {
			return false
		}
		info, _ := r.fs.Stat("g")
		return ok && got == want && info.Size == maxEnd &&
			sweeps >= 1 && sweeps <= len(r.fs.IONodes())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteGatherValidation(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		if _, _, err := r.fs.WriteGather(p, 0, "missing", []Extent{{0, 10}}); !errors.Is(err, ErrNotExist) {
			t.Errorf("missing file: %v", err)
		}
		r.fs.Preload("g", 0)
		if _, _, err := r.fs.WriteGather(p, 0, "g", []Extent{{10, 5}}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("inverted extent: %v", err)
		}
		if n, s, err := r.fs.WriteGather(p, 0, "g", nil); err != nil || n != 0 || s != 0 {
			t.Errorf("empty gather: n=%d s=%d err=%v", n, s, err)
		}
	})
}

func TestAccessValidation(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		if _, err := r.fs.Access(p, 0, "missing", iotrace.OpRead, 0, 10); !errors.Is(err, ErrNotExist) {
			t.Errorf("missing: %v", err)
		}
		r.fs.Preload("a", 1000)
		if _, err := r.fs.Access(p, 0, "a", iotrace.OpSeek, 0, 10); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad op: %v", err)
		}
		if _, err := r.fs.Access(p, 0, "a", iotrace.OpRead, -1, 10); !errors.Is(err, ErrBadRequest) {
			t.Errorf("negative: %v", err)
		}
		if _, err := r.fs.Access(p, 0, "a", iotrace.OpRead, 1000, 10); !errors.Is(err, ErrEOF) {
			t.Errorf("eof: %v", err)
		}
		if n, err := r.fs.Access(p, 0, "a", iotrace.OpRead, 500, 1000); err != nil || n != 500 {
			t.Errorf("clamp: n=%d err=%v", n, err)
		}
		if n, err := r.fs.Access(p, 0, "a", iotrace.OpWrite, 2000, 500); err != nil || n != 500 {
			t.Errorf("extend write: n=%d err=%v", n, err)
		}
		if info, _ := r.fs.Stat("a"); info.Size != 2500 {
			t.Errorf("size %d", info.Size)
		}
	})
}

// gatherRounds runs n aggregated flushes of one small extent per I/O node.
func gatherRounds(t *testing.T, n int) {
	r := newRig(t, nil)
	r.fs.SetRecorder(iotrace.Discard)
	if _, err := r.fs.Preload("g", 0); err != nil {
		t.Fatal(err)
	}
	su := r.fs.Config().StripeUnit
	extents := make([]Extent, len(r.fs.IONodes()))
	for i := range extents {
		extents[i] = Extent{Start: int64(i) * su, End: int64(i)*su + 4096}
	}
	r.run(t, func(p *sim.Process) {
		for i := 0; i < n; i++ {
			if _, sweeps, err := r.fs.WriteGather(p, 0, "g", extents); err != nil || sweeps != len(extents) {
				t.Errorf("gather %d: %d sweeps, %v", i, sweeps, err)
				return
			}
		}
	})
}

// TestWriteGatherAllocCeiling pins an aggregated flush at zero allocations:
// doubling the flushes from 100 to 200 must add no allocation.
func TestWriteGatherAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { gatherRounds(t, n) })
	}
	short, long := allocs(100), allocs(200)
	perFlush := (long - short) / 100
	t.Logf("%.0f allocations at 100 flushes, %.0f at 200: %.3f per flush", short, long, perFlush)
	if perFlush > 0.01 {
		t.Fatalf("an aggregated flush allocated %.3f times; want 0", perFlush)
	}
}
