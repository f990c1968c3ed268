package cache

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// checkIndex checks t against the model: the same entry count, every
// model key found at its entry, and every entry on an unbroken probe chain
// from its home (no empty slot between them), which a wrong backward
// shift would break.
func checkIndex(t *blockIndex, model map[int64]*block, universe []int64) error {
	if t.n != len(model) {
		return fmt.Errorf("table counts %d entries, model %d", t.n, len(model))
	}
	for _, k := range universe {
		if got, want := t.get(k), model[k]; got != want {
			return fmt.Errorf("get(%d) = %v, model %v", k, got, want)
		}
	}
	mask := len(t.slots) - 1
	occupied := 0
	for i, b := range t.slots {
		if b == nil {
			continue
		}
		occupied++
		for j := t.home(b.idx); j != i; j = (j + 1) & mask {
			if t.slots[j] == nil {
				return fmt.Errorf("block %d at slot %d: empty slot %d on its chain from home %d",
					b.idx, i, j, t.home(b.idx))
			}
		}
	}
	if occupied != t.n {
		return fmt.Errorf("%d occupied slots, table counts %d", occupied, t.n)
	}
	return nil
}

// TestBlockIndexMatchesMap drives the table with random puts, deletes and
// lookups against a Go map. Half the keys hash to the table's last two
// slots, so their probe chains wrap past the end and every delete among
// them shifts entries back across the wrap; the live count runs past the
// 3/4 limit so the table also grows.
func TestBlockIndexMatchesMap(t *testing.T) {
	wrapped, shifted, grew := 0, 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		tab := newBlockIndex(4) // 8 slots
		var universe []int64
		for k := int64(0); len(universe) < 12; k++ {
			if tab.home(k) >= len(tab.slots)-2 {
				universe = append(universe, k)
			}
		}
		for k := int64(1 << 40); len(universe) < 24; k += 1 + rng.Int63n(3) {
			universe = append(universe, k)
		}
		model := map[int64]*block{}
		size := len(tab.slots)
		for op := 0; op < 400; op++ {
			k := universe[rng.Intn(len(universe))]
			before := append([]*block(nil), tab.slots...)
			switch b := model[k]; {
			case b == nil && len(model) < 20:
				b = &block{idx: k}
				tab.put(b)
				model[k] = b
			case b != nil:
				tab.del(k)
				delete(model, k)
				if len(tab.slots) == len(before) {
					moved := 0
					for i := range before {
						if before[i] != tab.slots[i] {
							moved++
						}
					}
					if moved > 1 {
						shifted++
					}
				}
			}
			if err := checkIndex(&tab, model, universe); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			for i, b := range tab.slots {
				if b != nil && i < tab.home(b.idx) {
					wrapped++
				}
			}
			if len(tab.slots) > size {
				size = len(tab.slots)
				grew++
				if 4*tab.n <= 3*len(before) {
					t.Fatalf("seed %d op %d: grew from %d slots at %d entries, under 3/4 full",
						seed, op, len(before), tab.n)
				}
			}
		}
	}
	if wrapped == 0 || shifted == 0 || grew == 0 {
		t.Fatalf("coverage: %d wrapped entries, %d shifting deletes, %d growths; want each above 0",
			wrapped, shifted, grew)
	}
}

// TestBlockIndexChurnNeverGrows pins the table of a 128-block cache at its
// initial 256 slots: it holds 192 entries (3/4) without growing, grows at
// the 193rd, and churning 100,000 deletes and inserts at the benchmark's
// measured peak of 142 live entries never grows it.
func TestBlockIndexChurnNeverGrows(t *testing.T) {
	tab := newBlockIndex(128)
	if len(tab.slots) != 256 {
		t.Fatalf("a 128-block cache's table has %d slots, want 256", len(tab.slots))
	}
	for k := int64(0); k < 192; k++ {
		tab.put(&block{idx: k})
	}
	if len(tab.slots) != 256 {
		t.Fatalf("192 entries grew the table to %d slots", len(tab.slots))
	}
	tab.put(&block{idx: 192})
	if len(tab.slots) != 512 {
		t.Fatalf("193 entries left the table at %d slots, want 512", len(tab.slots))
	}

	tab = newBlockIndex(128)
	rng := sim.NewRNG(7)
	live := make([]int64, 0, 142)
	next := int64(3) << 34
	for len(live) < 142 {
		tab.put(&block{idx: next})
		live = append(live, next)
		next++
	}
	for op := 0; op < 100_000; op++ {
		i := rng.Intn(len(live))
		tab.del(live[i])
		next += 1 + rng.Int63n(4)
		tab.put(&block{idx: next})
		live[i] = next
	}
	if len(tab.slots) != 256 || tab.n != 142 {
		t.Fatalf("after churn: %d slots holding %d entries, want 256 holding 142", len(tab.slots), tab.n)
	}
	for _, k := range live {
		if b := tab.get(k); b == nil || b.idx != k {
			t.Fatalf("live block %d lost in churn", k)
		}
	}
}
