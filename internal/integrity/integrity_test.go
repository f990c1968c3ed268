package integrity

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestCorruptBlocksAsOfCut checks the ledger reads as it stood at an instant:
// corruption injected later is absent, and a repair after the instant does
// not clear it.
func TestCorruptBlocksAsOfCut(t *testing.T) {
	st := NewStore(0, DefaultConfig().Normalized(4096))
	st.CommitWrite(0, 0, 3*4096)
	st.MarkCorrupt(1*sim.Second, 2*4096, 1, TornWrite)
	st.MarkCorrupt(2*sim.Second, 0, 1, BitRot)
	st.Repair(3*sim.Second, 0, "scrub")

	want := map[sim.Time][]CorruptBlock{
		500 * sim.Millisecond:  nil,
		1 * sim.Second:         {{Block: 2, Class: TornWrite}},
		2500 * sim.Millisecond: {{Block: 0, Class: BitRot}, {Block: 2, Class: TornWrite}},
		4 * sim.Second:         {{Block: 2, Class: TornWrite}},
	}
	for cut, w := range want {
		if got := st.CorruptBlocks(cut); !reflect.DeepEqual(got, w) {
			t.Errorf("CorruptBlocks(%v) = %v, want %v", cut, got, w)
		}
	}

	ev, ok := st.Events()[1].At(2500 * sim.Millisecond)
	if !ok || ev.Detected || ev.Resolution != ResOpen {
		t.Errorf("bit-rot as of 2.5s = %+v (injected %v), want undetected and open", ev, ok)
	}
	if _, ok := st.Events()[1].At(1500 * sim.Millisecond); ok {
		t.Error("bit-rot injected at 2s reported as of 1.5s")
	}
}
