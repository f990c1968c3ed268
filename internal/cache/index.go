package cache

// blockIndex maps block indices to their entries: an open-addressed table
// with linear probing. Deletion shifts the rest of a probe chain back
// instead of leaving a tombstone, so the delete/insert churn of evictions
// and claims never fills the table, and one sized for the cache's
// capacity never grows. An empty slot is nil; a slot's key is its block's
// idx.
type blockIndex struct {
	slots []*block
	shift uint // 64 - log2(len(slots)): home takes the hash's top bits
	n     int  // occupied slots
}

// newBlockIndex sizes the table to the smallest power of two holding
// twice capBlocks. Resident blocks never exceed capBlocks, and in-flight
// entries beyond them stay few, so the table stays under its 3/4 load
// limit.
func newBlockIndex(capBlocks int64) blockIndex {
	size, shift := 8, uint(61)
	for int64(size) < 2*capBlocks {
		size, shift = size<<1, shift-1
	}
	return blockIndex{slots: make([]*block, size), shift: shift}
}

// home is idx's preferred slot: Fibonacci hashing spreads the clustered
// indices of one file's blocks over the table.
func (t *blockIndex) home(idx int64) int {
	return int(uint64(idx) * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns idx's entry, or nil.
func (t *blockIndex) get(idx int64) *block {
	mask := len(t.slots) - 1
	for i := t.home(idx); ; i = (i + 1) & mask {
		if b := t.slots[i]; b == nil || b.idx == idx {
			return b
		}
	}
}

// put adds b, whose index must not be in the table. The table doubles
// when the entry would fill more than 3/4 of it.
func (t *blockIndex) put(b *block) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	t.place(b)
	t.n++
}

// place stores b in the first free slot of its probe chain.
func (t *blockIndex) place(b *block) {
	mask := len(t.slots) - 1
	i := t.home(b.idx)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = b
}

// grow doubles the table and re-places every entry.
func (t *blockIndex) grow() {
	old := t.slots
	t.slots, t.shift = make([]*block, 2*len(old)), t.shift-1
	for _, b := range old {
		if b != nil {
			t.place(b)
		}
	}
}

// del removes idx's entry, which must be in the table. Each later entry of
// the probe chain whose home does not lie cyclically in (hole, its slot]
// would be cut off from its home by the hole, so it moves back into the
// hole, and its old slot becomes the hole; the chain's first empty slot
// ends the shift.
func (t *blockIndex) del(idx int64) {
	mask := len(t.slots) - 1
	i := t.home(idx)
	for t.slots[i].idx != idx {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		h := t.home(t.slots[j].idx)
		var stays bool
		if i <= j {
			stays = i < h && h <= j
		} else {
			stays = i < h || h <= j
		}
		if !stays {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = nil
	t.n--
}
