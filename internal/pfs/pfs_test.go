package pfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/iotrace"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// testRig bundles a small simulated machine: 32 compute nodes + 4 I/O nodes.
type testRig struct {
	eng *sim.Engine
	fs  *FileSystem
	rec *sliceRecorder
}

type sliceRecorder struct {
	events []iotrace.Event
}

func (r *sliceRecorder) Record(e iotrace.Event) { r.events = append(r.events, e) }

func (r *sliceRecorder) count(op iotrace.Op) int {
	n := 0
	for _, e := range r.events {
		if e.Op == op {
			n++
		}
	}
	return n
}

func newRig(t *testing.T, mut func(*Config)) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	m := mesh.New(36)
	cfg := DefaultConfig()
	cfg.IONodes = 4
	if mut != nil {
		mut(&cfg)
	}
	fs, err := New(eng, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &sliceRecorder{}
	fs.SetRecorder(rec)
	return &testRig{eng: eng, fs: fs, rec: rec}
}

// run executes fn as node 0's program and finishes the simulation.
func (r *testRig) run(t *testing.T, fn func(p *sim.Process)) {
	t.Helper()
	r.eng.Spawn("test", fn)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenAndErrors(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		if _, err := r.fs.Open(p, 0, "missing", iotrace.ModeUnix); !errors.Is(err, ErrNotExist) {
			t.Errorf("open missing: %v", err)
		}
		h, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix); !errors.Is(err, ErrExist) {
			t.Errorf("re-create: %v", err)
		}
		if _, ok := r.fs.Stat("f"); !ok {
			t.Error("Stat(f) found no file")
		}
		if err := h.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := h.Close(p); !errors.Is(err, ErrClosed) {
			t.Errorf("double close: %v", err)
		}
		if _, err := h.Read(p, 10); !errors.Is(err, ErrClosed) {
			t.Errorf("read after close: %v", err)
		}
	})
	if got := r.rec.count(iotrace.OpOpen); got != 1 {
		t.Errorf("open events = %d, want 1", got)
	}
	if got := r.rec.count(iotrace.OpClose); got != 1 {
		t.Errorf("close events = %d, want 1", got)
	}
}

func TestWriteExtendsAndReadClampsAtEOF(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := h.Write(p, 100_000); err != nil || n != 100_000 {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		info, _ := r.fs.Stat("f")
		if info.Size != 100_000 {
			t.Fatalf("size %d", info.Size)
		}
		if _, err := h.Seek(p, 0, SeekStart); err != nil {
			t.Fatal(err)
		}
		if n, err := h.Read(p, 60_000); err != nil || n != 60_000 {
			t.Fatalf("read1: n=%d err=%v", n, err)
		}
		// 40k left: request 60k, get 40k short.
		if n, err := h.Read(p, 60_000); err != nil || n != 40_000 {
			t.Fatalf("short read: n=%d err=%v", n, err)
		}
		// At EOF: zero bytes + ErrEOF.
		if n, err := h.Read(p, 10); !errors.Is(err, ErrEOF) || n != 0 {
			t.Fatalf("eof read: n=%d err=%v", n, err)
		}
	})
}

func TestStripingSpreadsAcrossIONodes(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "big", iotrace.ModeUnix)
		// 8 stripes of 64 KB over 4 I/O nodes: each services 2 chunks.
		if _, err := h.Write(p, 8*64*1024); err != nil {
			t.Fatal(err)
		}
	})
	for i, ion := range r.fs.IONodes() {
		req, bytes := ion.Stats()
		if req != 2 || bytes != 2*64*1024 {
			t.Errorf("ionode %d: %d req %d bytes, want 2 req 128KiB", i, req, bytes)
		}
	}
}

func TestSubStripeAccessTouchesOneIONode(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "small", iotrace.ModeUnix)
		if _, err := h.Write(p, 2048); err != nil {
			t.Fatal(err)
		}
	})
	touched := 0
	for _, ion := range r.fs.IONodes() {
		if req, _ := ion.Stats(); req > 0 {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("2 KB write touched %d I/O nodes, want 1", touched)
	}
}

func TestMUnixAtomicitySerializesSharedFile(t *testing.T) {
	// Two nodes writing the same M_UNIX file serialize on the atomicity
	// token; the same pattern on M_ASYNC overlaps. Compare makespans.
	elapsed := func(mode iotrace.AccessMode) sim.Time {
		r := newRig(t, nil)
		setup := make(chan *FileSystem, 1)
		_ = setup
		var hs [2]*Handle
		r.eng.Spawn("setup", func(p *sim.Process) {
			h, err := r.fs.Create(p, 0, "shared", mode)
			if err != nil {
				t.Fatal(err)
			}
			hs[0] = h
			h2, err := r.fs.Open(p, 1, "shared", mode)
			if err != nil {
				t.Fatal(err)
			}
			hs[1] = h2
			// Pre-extend so both can "read" too if needed.
			for node := 0; node < 2; node++ {
				node := node
				r.eng.Spawn(fmt.Sprintf("w%d", node), func(p *sim.Process) {
					hs[node].Seek(p, int64(node)*10<<20, SeekStart)
					if _, err := hs[node].Write(p, 1<<20); err != nil {
						t.Errorf("write: %v", err)
					}
				})
			}
		})
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return r.eng.Now()
	}
	serial := elapsed(iotrace.ModeUnix)
	overlapped := elapsed(iotrace.ModeAsync)
	if overlapped >= serial {
		t.Fatalf("M_ASYNC (%v) not faster than M_UNIX (%v) under contention", overlapped, serial)
	}
}

func TestMLogSharedPointerAssignsDisjointRegions(t *testing.T) {
	r := newRig(t, nil)
	offsets := map[int64]bool{}
	r.eng.Spawn("setup", func(p *sim.Process) {
		h0, err := r.fs.Create(p, 0, "log", iotrace.ModeLog)
		if err != nil {
			t.Fatal(err)
		}
		handles := []*Handle{h0}
		for node := 1; node < 4; node++ {
			h, err := r.fs.Open(p, node, "log", iotrace.ModeLog)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for i, h := range handles {
			h := h
			r.eng.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Process) {
				if _, err := h.Write(p, 1000); err != nil {
					t.Errorf("write: %v", err)
				}
			})
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range r.rec.events {
		if e.Op == iotrace.OpWrite {
			if offsets[e.Offset] {
				t.Fatalf("duplicate M_LOG offset %d", e.Offset)
			}
			offsets[e.Offset] = true
		}
	}
	for _, want := range []int64{0, 1000, 2000, 3000} {
		if !offsets[want] {
			t.Fatalf("missing M_LOG offset %d; got %v", want, offsets)
		}
	}
	info, _ := r.fs.Stat("log")
	if info.Size != 4000 {
		t.Fatalf("log size %d, want 4000", info.Size)
	}
}

func TestMSyncAccessesInNodeOrder(t *testing.T) {
	r := newRig(t, nil)
	var writeOrder []int
	r.eng.Spawn("setup", func(p *sim.Process) {
		h0, err := r.fs.Create(p, 0, "sync", iotrace.ModeSync)
		if err != nil {
			t.Fatal(err)
		}
		handles := []*Handle{h0}
		for node := 1; node < 4; node++ {
			h, err := r.fs.Open(p, node, "sync", iotrace.ModeSync)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		// Spawn in reverse arrival order; writes must still land 0,1,2,3.
		for i := len(handles) - 1; i >= 0; i-- {
			i := i
			h := handles[i]
			r.eng.SpawnAt(fmt.Sprintf("w%d", i), sim.Time(len(handles)-i)*sim.Millisecond, func(p *sim.Process) {
				if _, err := h.Write(p, 100); err != nil {
					t.Errorf("write: %v", err)
				}
				writeOrder = append(writeOrder, i)
			})
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range writeOrder {
		if v != i {
			t.Fatalf("M_SYNC order %v", writeOrder)
		}
	}
}

func TestMRecordFixedLengthAndInterleaving(t *testing.T) {
	r := newRig(t, nil)
	const rec = 512
	ncompute := int64(32) // 36 mesh positions - 4 I/O nodes
	r.eng.Spawn("setup", func(p *sim.Process) {
		hw, err := r.fs.Create(p, 0, "rec", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-populate enough data for the reads below.
		if _, err := hw.Write(p, rec*3*ncompute); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < 3; node++ {
			node := node
			r.eng.Spawn(fmt.Sprintf("r%d", node), func(p *sim.Process) {
				h, err := r.fs.OpenRecord(p, node, "rec", rec)
				if err != nil {
					t.Errorf("open record: %v", err)
					return
				}
				// Wrong size rejected.
				if _, err := h.Read(p, rec+1); !errors.Is(err, ErrRecordLength) {
					t.Errorf("variable-size M_RECORD access: %v", err)
				}
				for j := int64(0); j < 2; j++ {
					if _, err := h.Read(p, rec); err != nil {
						t.Errorf("record read: %v", err)
					}
					want := (j*ncompute + int64(node)) * rec
					if h.Offset() != want+rec {
						t.Errorf("node %d rec %d: offset %d, want %d", node, j, h.Offset(), want+rec)
					}
				}
			})
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMGlobalOnePhysicalTransfer(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("setup", func(p *sim.Process) {
		hw, err := r.fs.Create(p, 0, "g", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hw.Write(p, 64*1024); err != nil {
			t.Fatal(err)
		}
		before := totalRequests(r.fs)
		handles := make([]*Handle, 4)
		for node := 0; node < 4; node++ {
			h, err := r.fs.Open(p, node, "g", iotrace.ModeGlobal)
			if err != nil {
				t.Fatal(err)
			}
			handles[node] = h
		}
		done := 0
		for node := 0; node < 4; node++ {
			node := node
			r.eng.Spawn(fmt.Sprintf("g%d", node), func(p *sim.Process) {
				n, err := handles[node].Read(p, 64*1024)
				if err != nil || n != 64*1024 {
					t.Errorf("global read node %d: n=%d err=%v", node, n, err)
				}
				done++
				if done == 4 {
					after := totalRequests(r.fs)
					if after-before != 1 {
						t.Errorf("M_GLOBAL issued %d physical requests, want 1", after-before)
					}
				}
			})
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func totalRequests(fs *FileSystem) int64 {
	var total int64
	for _, ion := range fs.IONodes() {
		req, _ := ion.Stats()
		total += req
	}
	return total
}

func TestSharedModeMismatchRejected(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		if _, err := r.fs.Create(p, 0, "s", iotrace.ModeLog); err != nil {
			t.Fatal(err)
		}
		if _, err := r.fs.Open(p, 1, "s", iotrace.ModeSync); !errors.Is(err, ErrModeMismatch) {
			t.Fatalf("mode mismatch not rejected: %v", err)
		}
		// Same mode is fine.
		if _, err := r.fs.Open(p, 1, "s", iotrace.ModeLog); err != nil {
			t.Fatalf("same-mode open rejected: %v", err)
		}
	})
}

func TestSeekSemanticsAndDistance(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 1000)
		if off, err := h.Seek(p, 100, SeekStart); err != nil || off != 100 {
			t.Fatalf("seek start: %d %v", off, err)
		}
		if off, err := h.Seek(p, 50, SeekCurrent); err != nil || off != 150 {
			t.Fatalf("seek current: %d %v", off, err)
		}
		if off, err := h.Seek(p, -200, SeekEnd); err != nil || off != 800 {
			t.Fatalf("seek end: %d %v", off, err)
		}
		if _, err := h.Seek(p, -10, SeekStart); !errors.Is(err, ErrBadSeek) {
			t.Fatalf("negative seek: %v", err)
		}
		if _, err := h.Seek(p, 0, 99); !errors.Is(err, ErrBadSeek) {
			t.Fatalf("bad whence: %v", err)
		}
	})
	// Distances recorded as event bytes: 1000->100 = 900, then 50, then
	// 150->800 = 650.
	var dists []int64
	for _, e := range r.rec.events {
		if e.Op == iotrace.OpSeek {
			dists = append(dists, e.Bytes)
		}
	}
	want := []int64{900, 50, 650}
	if len(dists) != len(want) {
		t.Fatalf("seek events %v", dists)
	}
	for i := range want {
		if dists[i] != want[i] {
			t.Fatalf("seek distances %v, want %v", dists, want)
		}
	}
}

func TestAsyncReadOverlapsWithCompute(t *testing.T) {
	// Issue a large async read, compute for its duration, then wait: total
	// time should be close to max(compute, read), not the sum.
	var syncTime, asyncTime sim.Time
	const size = 8 << 20
	const compute = 2 * sim.Second

	{
		r := newRig(t, nil)
		r.run(t, func(p *sim.Process) {
			h, _ := r.fs.Create(p, 0, "d", iotrace.ModeUnix)
			h.Write(p, size)
			h.Seek(p, 0, SeekStart)
			start := p.Now()
			if _, err := h.Read(p, size); err != nil {
				t.Fatal(err)
			}
			p.Sleep(compute)
			syncTime = p.Now() - start
		})
	}
	{
		r := newRig(t, nil)
		r.run(t, func(p *sim.Process) {
			h, _ := r.fs.Create(p, 0, "d", iotrace.ModeUnix)
			h.Write(p, size)
			h.Seek(p, 0, SeekStart)
			start := p.Now()
			ar, err := h.ReadAsync(p, size)
			if err != nil {
				t.Fatal(err)
			}
			p.Sleep(compute)
			if n, err := ar.Wait(p); err != nil || n != size {
				t.Fatalf("wait: n=%d err=%v", n, err)
			}
			asyncTime = p.Now() - start
		})
		// Fully overlapped: iowait events exist and are ~0 in duration.
		for _, e := range r.rec.events {
			if e.Op == iotrace.OpIOWait && e.Duration() > 100*sim.Millisecond {
				t.Fatalf("iowait %v despite full overlap", e.Duration())
			}
		}
	}
	if asyncTime >= syncTime-sim.Second {
		t.Fatalf("async %v not much faster than sync %v", asyncTime, syncTime)
	}
}

func TestAsyncReadIOWaitChargedWhenNotOverlapped(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "d", iotrace.ModeUnix)
		h.Write(p, 4<<20)
		h.Seek(p, 0, SeekStart)
		ar, err := h.ReadAsync(p, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ar.Wait(p); err != nil {
			t.Fatal(err)
		}
		// Second Wait returns immediately with the same result.
		if n, err := ar.Wait(p); err != nil || n != 4<<20 {
			t.Fatalf("re-wait: n=%d err=%v", n, err)
		}
	})
	var waits []sim.Time
	for _, e := range r.rec.events {
		if e.Op == iotrace.OpIOWait {
			waits = append(waits, e.Duration())
		}
	}
	if len(waits) != 1 {
		t.Fatalf("iowait events %d, want 1", len(waits))
	}
	if waits[0] < 100*sim.Millisecond {
		t.Fatalf("iowait %v suspiciously small for un-overlapped 4 MB read", waits[0])
	}
}

func TestAsyncReadAtEOF(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "d", iotrace.ModeUnix)
		h.Write(p, 100)
		// Pointer at 100 == EOF.
		ar, err := h.ReadAsync(p, 50)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := ar.Wait(p); !errors.Is(err, ErrEOF) || n != 0 {
			t.Fatalf("eof async: n=%d err=%v", n, err)
		}
	})
}

func TestAsyncReadRejectedOnSharedModes(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "l", iotrace.ModeLog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.ReadAsync(p, 100); err == nil {
			t.Fatal("ReadAsync on M_LOG accepted")
		}
	})
}

func TestLsizeAndFlush(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 12345)
		size, err := h.Lsize(p)
		if err != nil || size != 12345 {
			t.Fatalf("lsize: %d %v", size, err)
		}
		if err := h.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
	if r.rec.count(iotrace.OpLsize) != 1 || r.rec.count(iotrace.OpFlush) != 1 {
		t.Fatal("lsize/flush events missing")
	}
}

func TestFirstOpenPenaltyAppliedOnce(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Cost.FirstOpenPenalty = 5 * sim.Second
	})
	var first, second sim.Time
	r.run(t, func(p *sim.Process) {
		t0 := p.Now()
		r.fs.Create(p, 0, "a", iotrace.ModeUnix)
		first = p.Now() - t0
		t1 := p.Now()
		r.fs.Create(p, 0, "b", iotrace.ModeUnix)
		second = p.Now() - t1
	})
	if first < 5*sim.Second {
		t.Fatalf("first open %v did not include penalty", first)
	}
	if second >= 5*sim.Second {
		t.Fatalf("second open %v re-paid penalty", second)
	}
}

func TestOpCountersMatchRecorder(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 1000)
		h.Write(p, 500)
		h.Seek(p, 0, SeekStart)
		h.Read(p, 1500)
		h.Close(p)
	})
	fs := r.fs
	if fs.OpCount(iotrace.OpWrite) != 2 || fs.OpBytes(iotrace.OpWrite) != 1500 {
		t.Fatalf("write counters: %d ops %d bytes", fs.OpCount(iotrace.OpWrite), fs.OpBytes(iotrace.OpWrite))
	}
	if fs.OpCount(iotrace.OpRead) != 1 || fs.OpBytes(iotrace.OpRead) != 1500 {
		t.Fatal("read counters wrong")
	}
	if fs.OpTime(iotrace.OpWrite) <= 0 {
		t.Fatal("no write time accumulated")
	}
	if len(r.rec.events) != int(fs.OpCount(iotrace.OpOpen)+fs.OpCount(iotrace.OpClose)+
		fs.OpCount(iotrace.OpRead)+fs.OpCount(iotrace.OpWrite)+fs.OpCount(iotrace.OpSeek)) {
		t.Fatalf("recorder has %d events", len(r.rec.events))
	}
}

func TestPhaseLabelsCaptured(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		r.fs.SetPhase(iotrace.PhaseInitialization)
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		r.fs.SetPhase(iotrace.PhaseOutput)
		h.Write(p, 100)
	})
	if r.rec.events[0].Phase != iotrace.PhaseInitialization || r.rec.events[1].Phase != iotrace.PhaseOutput {
		t.Fatalf("phases: %q %q", r.rec.events[0].Phase, r.rec.events[1].Phase)
	}
}

func TestFilesListedInCreationOrder(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		for _, name := range []string{"c", "a", "b"} {
			if _, err := r.fs.Create(p, 0, name, iotrace.ModeUnix); err != nil {
				t.Fatal(err)
			}
		}
	})
	files := r.fs.Files()
	if len(files) != 3 || files[0].Name != "c" || files[1].Name != "a" || files[2].Name != "b" {
		t.Fatalf("files %v", files)
	}
	if files[0].ID != 1 || files[2].ID != 3 {
		t.Fatalf("ids %v", files)
	}
}

func TestNegativeRequestRejected(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if _, err := h.Write(p, -5); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("negative write: %v", err)
		}
		if _, err := h.Read(p, -5); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("negative read: %v", err)
		}
	})
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.IONodes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("0 ionodes accepted")
	}
	bad = DefaultConfig()
	bad.StripeUnit = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("0 stripe accepted")
	}
	eng := sim.NewEngine()
	m := mesh.New(16)
	if _, err := New(eng, m, bad); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() sim.Time {
		r := newRig(t, nil)
		r.eng.Spawn("setup", func(p *sim.Process) {
			h0, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
			if err != nil {
				t.Fatal(err)
			}
			_ = h0
			for node := 0; node < 8; node++ {
				node := node
				r.eng.Spawn(fmt.Sprintf("n%d", node), func(p *sim.Process) {
					h, err := r.fs.Open(p, node, "f", iotrace.ModeUnix)
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					for i := 0; i < 5; i++ {
						h.Seek(p, int64(node*1000+i*100), SeekStart)
						h.Write(p, 100)
					}
				})
			}
		})
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return r.eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
