package burst

import (
	"testing"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// harness builds an engine, a machine-shaped PFS, and a tier over it.
func harness(t *testing.T, nodes int, cfg Config) (*workload.Machine, *Tier) {
	t.Helper()
	m, err := workload.NewMachine(workload.MachineConfig{
		ComputeNodes: nodes, PFS: pfs.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Enabled = true
	tier, err := New(m.Eng, m.PFS, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, tier
}

func TestCommitAbsorbsAndDrains(t *testing.T) {
	m, tier := harness(t, 2, Config{})
	const recBytes, recs = 64 << 10, 8
	if _, err := tier.Preload("log.dat", 0); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		node := node
		m.Eng.Spawn("writer", func(p *sim.Process) {
			h, err := tier.Open(p, node, "log.dat", iotrace.ModeLog)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < recs; i++ {
				if _, err := h.Write(p, recBytes); err != nil {
					t.Error(err)
					return
				}
			}
			if err := h.Close(p); err != nil {
				t.Error(err)
			}
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	wantBytes := int64(2 * recs * recBytes)
	if st.Committed != 2*recs || st.CommittedBytes != wantBytes {
		t.Errorf("committed %d records %d bytes, want %d / %d",
			st.Committed, st.CommittedBytes, 2*recs, wantBytes)
	}
	if st.Drained != st.Committed || st.DrainedBytes != wantBytes {
		t.Errorf("drained %d records %d bytes, want all %d / %d",
			st.Drained, st.DrainedBytes, st.Committed, wantBytes)
	}
	if st.UndrainedRecords != 0 || st.UndrainedBytes != 0 {
		t.Errorf("undrained residue %d records %d bytes after engine drained",
			st.UndrainedRecords, st.UndrainedBytes)
	}
	if st.AbsorbRatio() != 1 {
		t.Errorf("absorb ratio %v, want 1", st.AbsorbRatio())
	}
	// Both nodes appended through the shared M_LOG pointer: the drained PFS
	// image must cover every byte exactly once.
	fi, ok := m.PFS.Stat("log.dat")
	if !ok || fi.Size != wantBytes {
		t.Errorf("PFS image %d bytes (ok=%v), want %d", fi.Size, ok, wantBytes)
	}
}

func TestBackpressureBoundsLogUse(t *testing.T) {
	m, tier := harness(t, 1, Config{CapacityBytes: 256 << 10})
	const recBytes, recs = 64 << 10, 32
	m.Eng.Spawn("writer", func(p *sim.Process) {
		h, err := tier.Create(p, 0, "log.dat", iotrace.ModeLog)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < recs; i++ {
			if _, err := h.Write(p, recBytes); err != nil {
				t.Error(err)
				return
			}
			if used, _ := tier.UndrainedNode(0); used > 256<<10 {
				t.Errorf("log used %d bytes over the %d capacity", used, 256<<10)
			}
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.Backpressure == 0 || st.BackpressureStall == 0 {
		t.Errorf("32x64KB through a 256KB log saw no backpressure: %+v", st)
	}
	if st.Drained != recs {
		t.Errorf("drained %d of %d records", st.Drained, recs)
	}
}

func TestOversizedRecordBypasses(t *testing.T) {
	m, tier := harness(t, 1, Config{CapacityBytes: 1 << 20})
	m.Eng.Spawn("writer", func(p *sim.Process) {
		h, err := tier.Create(p, 0, "big.dat", iotrace.ModeLog)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Write(p, 256<<10); err != nil { // fits: absorbed
			t.Error(err)
		}
		if _, err := h.Write(p, 2<<20); err != nil { // larger than the log
			t.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.Committed != 1 || st.Bypassed != 1 || st.BypassedBytes != 2<<20 {
		t.Errorf("committed %d bypassed %d (%d bytes), want 1/1/%d",
			st.Committed, st.Bypassed, st.BypassedBytes, 2<<20)
	}
	// The bypass waited for the earlier record's drain, so the image is the
	// in-order concatenation.
	fi, ok := m.PFS.Stat("big.dat")
	if !ok || fi.Size != 256<<10+2<<20 {
		t.Errorf("image %d bytes (ok=%v), want %d", fi.Size, ok, int64(256<<10+2<<20))
	}
}

func TestReadWaitsForDrain(t *testing.T) {
	m, tier := harness(t, 1, Config{})
	var readBytes int64
	m.Eng.Spawn("writer-reader", func(p *sim.Process) {
		h, err := tier.Create(p, 0, "wr.dat", iotrace.ModeLog)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Write(p, 128<<10); err != nil {
			t.Error(err)
			return
		}
		// A non-intercepted open sees the raw PFS: it must wait out the
		// pending drain before its reader touches the file.
		r, err := tier.Open(p, 0, "wr.dat", iotrace.ModeUnix)
		if err != nil {
			t.Error(err)
			return
		}
		readBytes, err = r.Read(p, 128<<10)
		if err != nil {
			t.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.ReadStalls == 0 || st.ReadStallTime == 0 {
		t.Errorf("reader raced the drain: %+v", st)
	}
	if readBytes != 128<<10 {
		t.Errorf("read %d bytes, want %d", readBytes, 128<<10)
	}
}

func TestCompressionShrinksWire(t *testing.T) {
	m, tier := harness(t, 1, Config{
		Compress: CompressConfig{Enabled: true, Ratio: 2},
	})
	m.Eng.Spawn("writer", func(p *sim.Process) {
		h, err := tier.Create(p, 0, "c.dat", iotrace.ModeLog)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Write(p, 1<<20); err != nil {
			t.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.WireBytes != 512<<10 {
		t.Errorf("wire bytes %d, want %d at ratio 2", st.WireBytes, 512<<10)
	}
	if st.CompressSavedBytes() != 512<<10 || st.CompressTime == 0 {
		t.Errorf("saved %d bytes in %v CPU, want %d and nonzero",
			st.CompressSavedBytes(), st.CompressTime, 512<<10)
	}
	// The logical image still covers the full uncompressed extent.
	fi, ok := m.PFS.Stat("c.dat")
	if !ok || fi.Size != 1<<20 {
		t.Errorf("image %d bytes (ok=%v), want %d", fi.Size, ok, 1<<20)
	}
}

// independentWriteImage runs a prefix-intercepted M_UNIX writer with per-node
// files and returns the tier stats — the checkpoint-shaped traffic pattern.
func prefixRun(t *testing.T, cfg Config) (Stats, sim.Time) {
	t.Helper()
	m, tier := harness(t, 4, cfg)
	tier.InterceptPrefix("app.ckpt")
	if _, err := tier.Preload("app.ckpt.0", 0); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		node := node
		m.Eng.Spawn("ckpt-writer", func(p *sim.Process) {
			h, err := tier.Open(p, node, "app.ckpt.0", iotrace.ModeUnix)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := h.Seek(p, int64(node)*(1<<20), pfs.SeekStart); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 4; i++ {
				if _, err := h.Write(p, 256<<10); err != nil {
					t.Error(err)
					return
				}
			}
			if err := h.Close(p); err != nil {
				t.Error(err)
			}
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	fi, ok := m.PFS.Stat("app.ckpt.0")
	if !ok || fi.Size != 4<<20 {
		t.Fatalf("image %d bytes (ok=%v), want %d", fi.Size, ok, 4<<20)
	}
	return tier.Stats(), tier.Stats().LastDrainEnd
}

func TestPrefixInterceptionAndDeterminism(t *testing.T) {
	a, endA := prefixRun(t, Config{})
	b, endB := prefixRun(t, Config{})
	if a != b || endA != endB {
		t.Errorf("same configuration diverged:\n%+v\n%+v", a, b)
	}
	if a.Committed != 16 || a.CommittedBytes != 4<<20 {
		t.Errorf("prefix interception absorbed %d records %d bytes, want 16 / %d",
			a.Committed, a.CommittedBytes, 4<<20)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []Config{
		{Enabled: true, CapacityBytes: -1},
		{Enabled: true, CapacityBytes: 1 << 20, DrainBWBytesPerS: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("disabled zero config rejected: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRecordSealVerifyRoundtrip(t *testing.T) {
	r := Record{Seq: 42, Node: 3, File: "app.ckpt.1", Offset: 81920, Bytes: 65536,
		Class: iotrace.PhaseCheckpoint}.Seal()
	if !r.Verify() {
		t.Fatal("sealed record does not verify")
	}
	tampered := r
	tampered.Offset += 512
	if tampered.Verify() {
		t.Error("offset-shifted record still verifies")
	}
	tampered = r
	tampered.Seq++
	if tampered.Verify() {
		t.Error("sequence-shifted record still verifies")
	}
}
