package pfs

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// TestRoundCountersPerMode interleaves two nodes' M_RECORD writes, M_SYNC
// writes and M_GLOBAL reads, each mode on its own file and handle, and
// checks the offset every access lands at. Each handle counts its own
// rounds, so a node's accesses in one mode never shift where its accesses
// in another land. It runs with and without collective I/O, which assigns
// M_RECORD and M_SYNC offsets by round index in its own code path.
func TestRoundCountersPerMode(t *testing.T) {
	const (
		nodes  = 2
		rounds = 3
		recLen = 512
		global = 1000
	)
	syncLen := func(node int) int64 { return int64(100 + node*10) }
	for _, coll := range []bool{false, true} {
		t.Run(fmt.Sprintf("collective=%v", coll), func(t *testing.T) {
			var r *testRig
			if coll {
				r = collRig(t, nodes, nil)
			} else {
				r = newRig(t, func(c *Config) { c.ComputeNodes = nodes })
			}
			if _, err := r.fs.Preload("glob", rounds*global); err != nil {
				t.Fatal(err)
			}
			r.run(t, func(p *sim.Process) {
				if _, err := r.fs.Create(p, 0, "rec", iotrace.ModeUnix); err != nil {
					t.Fatal(err)
				}
				if _, err := r.fs.Create(p, 0, "sync", iotrace.ModeSync); err != nil {
					t.Fatal(err)
				}
			})
			type trio struct{ rec, sync, glob *Handle }
			hs := make([]trio, nodes)
			openGroup(t, r, nodes, func(p *sim.Process, node int) (*Handle, error) {
				var err error
				h := &hs[node]
				if h.rec, err = r.fs.OpenRecord(p, node, "rec", recLen); err != nil {
					return nil, err
				}
				if h.sync, err = r.fs.Open(p, node, "sync", iotrace.ModeSync); err != nil {
					return nil, err
				}
				h.glob, err = r.fs.Open(p, node, "glob", iotrace.ModeGlobal)
				return h.glob, err
			})
			r.rec.events = nil
			spawnGroup(t, r, nodes, func(p *sim.Process, node int) {
				h := hs[node]
				for j := 0; j < rounds; j++ {
					if _, err := h.rec.Write(p, recLen); err != nil {
						t.Errorf("node %d record write %d: %v", node, j, err)
					}
					if _, err := h.sync.Write(p, syncLen(node)); err != nil {
						t.Errorf("node %d sync write %d: %v", node, j, err)
					}
					if _, err := h.glob.Read(p, global); err != nil {
						t.Errorf("node %d global read %d: %v", node, j, err)
					}
				}
			})

			// Where node's j-th access to each file should land. M_SYNC
			// rounds are node 0's bytes then node 1's.
			roundLen := syncLen(0) + syncLen(1)
			want := map[string]func(node int, j int64) int64{
				"rec":  func(node int, j int64) int64 { return (j*nodes + int64(node)) * recLen },
				"sync": func(node int, j int64) int64 { return j*roundLen + int64(node)*syncLen(0) },
				"glob": func(node int, j int64) int64 { return j * global },
			}
			for f, at := range want {
				info, _ := r.fs.Stat(f)
				var got, exp [nodes][]int64
				for _, e := range r.rec.events {
					if e.File == info.ID && (e.Op == iotrace.OpRead || e.Op == iotrace.OpWrite) {
						got[e.Node] = append(got[e.Node], e.Offset)
					}
				}
				for node := range exp {
					for j := int64(0); j < rounds; j++ {
						exp[node] = append(exp[node], at(node, j))
					}
					if !slices.Equal(got[node], exp[node]) {
						t.Errorf("%s node %d: offsets %v, want %v", f, node, got[node], exp[node])
					}
				}
			}
		})
	}
}

// TestHandleLayout pins the open handle's size: every open allocates one,
// and 64 bytes is the smallest size class its fields fit.
func TestHandleLayout(t *testing.T) {
	if got := unsafe.Sizeof(Handle{}); got > 64 {
		t.Errorf("Handle is %d bytes, want at most 64", got)
	}
}

// TestSetIOModeRestartsRound switches a one-node handle from M_RECORD,
// after two records, to M_SYNC. Its first M_SYNC write is round 0 and lands
// at the shared pointer's start; a count carried over from M_RECORD would
// wait for a turn that never comes.
func TestSetIOModeRestartsRound(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ComputeNodes = 1 })
	const rec = 256
	r.run(t, func(p *sim.Process) {
		if _, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix); err != nil {
			t.Fatal(err)
		}
		h, err := r.fs.OpenRecord(p, 0, "f", rec)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, err := h.Write(p, rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.SetIOMode(p, iotrace.ModeSync, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(p, 100); err != nil {
			t.Fatal(err)
		}
	})
	last := r.rec.events[len(r.rec.events)-1]
	if last.Op != iotrace.OpWrite || last.Mode != iotrace.ModeSync || last.Offset != 0 {
		t.Fatalf("first M_SYNC write: %+v, want a write at offset 0", last)
	}
}
