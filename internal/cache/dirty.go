package cache

import (
	"cmp"
	"slices"
)

// dirtyIndex indexes a cache's resident dirty blocks. It holds one list
// per stream with dirty blocks, ascending by block index, and keeps the
// lists in a min-heap on their heads, so the smallest dirty block overall
// heads the root's list. A block is on one list only, so heads are unique
// and the pick is deterministic. A stream's state records where its list
// sits. Only add and drop change the lists or block.dirty, so the two
// cannot disagree.
type dirtyIndex struct {
	heap  []dirtyList
	n     int        // dirty blocks over all streams
	spare [][]*block // emptied lists, kept for the next stream to dirty a block
}

// dirtyList is one stream's dirty blocks.
type dirtyList struct {
	st     *streamState
	blocks []*block
}

// of returns st's dirty list, nil when the stream has no dirty block.
func (d *dirtyIndex) of(st *streamState) []*block {
	if st == nil || st.dirtyAt == 0 {
		return nil
	}
	return d.heap[st.dirtyAt-1].blocks
}

// first returns the dirty block with the smallest index, or nil.
func (d *dirtyIndex) first() *block {
	if len(d.heap) == 0 {
		return nil
	}
	return d.heap[0].blocks[0]
}

// find returns dirty block b's position in its stream's list l.
func find(l []*block, b *block) int {
	i, _ := slices.BinarySearchFunc(l, b.idx, byIdx)
	return i
}

// add dirties clean block b on stream s, whose state is st, and files it
// at its sorted place in the stream's list.
func (d *dirtyIndex) add(b *block, s int64, st *streamState) {
	b.stream, b.dirty = s, true
	d.n++
	if st.dirtyAt == 0 {
		var l []*block
		if k := len(d.spare); k > 0 {
			l = d.spare[k-1]
			d.spare = d.spare[:k-1]
		}
		d.heap = append(d.heap, dirtyList{st: st, blocks: append(l, b)})
		d.up(len(d.heap) - 1)
		return
	}
	k := int(st.dirtyAt - 1)
	l := d.heap[k].blocks
	i := find(l, b)
	d.heap[k].blocks = slices.Insert(l, i, b)
	if i == 0 {
		d.up(k)
	}
}

// drop cleans the blocks at positions [i, j) of st's list and takes them
// off it. A list left empty leaves the heap and is kept for the next
// stream to dirty a block.
func (d *dirtyIndex) drop(st *streamState, i, j int) {
	k := int(st.dirtyAt - 1)
	l := d.heap[k].blocks
	for _, b := range l[i:j] {
		b.dirty = false
	}
	d.n -= j - i
	if j-i == len(l) {
		d.remove(k)
		clear(l)
		d.spare = append(d.spare, l[:0])
		return
	}
	d.heap[k].blocks = slices.Delete(l, i, j)
	if i == 0 {
		d.down(k)
	}
}

// head is the head block index of the list at heap position k.
func (d *dirtyIndex) head(k int) int64 { return d.heap[k].blocks[0].idx }

// set puts list e at heap position k.
func (d *dirtyIndex) set(k int, e dirtyList) {
	d.heap[k] = e
	e.st.dirtyAt = int32(k + 1)
}

// up moves the list at heap position k toward the root past every parent
// with a larger head.
func (d *dirtyIndex) up(k int) {
	e, h := d.heap[k], d.head(k)
	for k > 0 {
		p := (k - 1) / 2
		if d.head(p) < h {
			break
		}
		d.set(k, d.heap[p])
		k = p
	}
	d.set(k, e)
}

// down moves the list at heap position k away from the root past every
// child with a smaller head.
func (d *dirtyIndex) down(k int) {
	e, h := d.heap[k], d.head(k)
	for {
		c := 2*k + 1
		if c >= len(d.heap) {
			break
		}
		if c+1 < len(d.heap) && d.head(c+1) < d.head(c) {
			c++
		}
		if h < d.head(c) {
			break
		}
		d.set(k, d.heap[c])
		k = c
	}
	d.set(k, e)
}

// remove takes the list at heap position k out of the heap.
func (d *dirtyIndex) remove(k int) {
	d.heap[k].st.dirtyAt = 0
	last := len(d.heap) - 1
	e := d.heap[last]
	d.heap[last] = dirtyList{}
	d.heap = d.heap[:last]
	if k == last {
		return
	}
	d.set(k, e)
	d.up(k)
	d.down(int(e.st.dirtyAt - 1))
}

// byIdx orders a dirty list by block index, for binary search and sorting.
func byIdx(b *block, idx int64) int { return cmp.Compare(b.idx, idx) }
