package cache

import "slices"

// Pattern is an online per-stream access-pattern verdict. The thresholds
// mirror the offline classifier in internal/analysis/patterns.go (and the
// PPFS client classifier): a stream is sequential when at least 60% of its
// transitions continue exactly where the previous access ended, strided
// when at least 50% repeat a fixed non-sequential stride, random otherwise.
// Fewer than four accesses is too little evidence to act on.
type Pattern int

const (
	PatternUnknown Pattern = iota
	PatternSequential
	PatternStrided
	PatternRandom
)

func (p Pattern) String() string {
	switch p {
	case PatternSequential:
		return "sequential"
	case PatternStrided:
		return "strided"
	case PatternRandom:
		return "random"
	}
	return "unknown"
}

const (
	classifyMinAccesses = 4
	seqThreshold        = 0.6
	strideThreshold     = 0.5
)

// streamState is one stream's memory: the classifier's counts and where
// the cache's dirty index keeps the stream's dirty blocks.
type streamState struct {
	lastStart int64
	lastEnd   int64
	stride    int64
	accesses  int64
	seq       int64 // transitions continuing at lastEnd
	strided   int64 // non-sequential transitions repeating the stride
	seqRun    int64 // current consecutive sequential transitions

	dirtyAt int32 // 1 + the place of the stream's dirty list in the dirty index; 0 when clean
}

func (st *streamState) pattern() Pattern {
	if st.accesses < classifyMinAccesses {
		return PatternUnknown
	}
	trans := float64(st.accesses - 1)
	if float64(st.seq)/trans >= seqThreshold {
		return PatternSequential
	}
	if float64(st.strided)/trans >= strideThreshold {
		return PatternStrided
	}
	return PatternRandom
}

// statePage is how many stream states share one allocation.
const statePage = 32

// classifier holds the state of every stream one cache has seen. Streams
// are small non-negative numbers (the PFS numbers each file copy densely),
// so a stream's state is found through slot, indexed by stream: 0 for a
// stream never seen, else one more than the state's number. States live in
// pages that never move, so a pointer to one stays valid as streams are
// added. The classifier also remembers the last stream it observed.
type classifier struct {
	slot       []int32
	pages      []*[statePage]streamState
	n          int // streams seen
	lastStream int64
	last       *streamState // nil until the first lookup
}

func newClassifier() *classifier { return &classifier{} }

// state returns the stream's state, or nil for a stream not yet numbered.
func (cl *classifier) state(stream int64) *streamState {
	if stream >= int64(len(cl.slot)) || cl.slot[stream] == 0 {
		return nil
	}
	k := int(cl.slot[stream]) - 1
	return &cl.pages[k/statePage][k%statePage]
}

// get returns the stream's state, numbering the stream with a zeroed state
// if it is new.
func (cl *classifier) get(stream int64) *streamState {
	if st := cl.state(stream); st != nil {
		return st
	}
	if n := int(stream) + 1; n > len(cl.slot) {
		cl.slot = slices.Grow(cl.slot, n-len(cl.slot))[:n]
	}
	k := cl.n
	if k%statePage == 0 {
		cl.pages = append(cl.pages, new([statePage]streamState))
	}
	cl.n++
	cl.slot[stream] = int32(k + 1)
	return &cl.pages[k/statePage][k%statePage]
}

// observe folds one access into the stream's state and returns it.
func (cl *classifier) observe(stream, addr, n int64) *streamState {
	st := cl.last
	if st == nil || cl.lastStream != stream {
		st = cl.get(stream)
		cl.lastStream, cl.last = stream, st
	}
	if st.accesses > 0 {
		switch {
		case addr == st.lastEnd:
			st.seq++
			st.seqRun++
		default:
			stride := addr - st.lastStart
			if stride == st.stride {
				st.strided++
			}
			st.stride = stride
			st.seqRun = 0
		}
	}
	st.accesses++
	st.lastStart = addr
	st.lastEnd = addr + n
	return st
}

// predict appends to dst the block indices worth prefetching after an
// access at [addr, addr+n) on the given stream, most-confident first, and
// returns the extended slice. Aggressiveness follows the verdict: a
// sequential stream ramps its readahead with the length of the current
// sequential run (up to depth), a strided stream fetches the blocks
// covering the one predicted next request, and random or unclassified
// streams fetch nothing.
func (cl *classifier) predict(dst []int64, st *streamState, n, blockBytes int64, depth int) []int64 {
	switch st.pattern() {
	case PatternSequential:
		d := int64(depth)
		if st.seqRun < d {
			d = st.seqRun
		}
		first := (st.lastEnd-1)/blockBytes + 1
		for i := int64(0); i < d; i++ {
			dst = append(dst, first+i)
		}
	case PatternStrided:
		next := st.lastStart + st.stride
		if next < 0 {
			return dst
		}
		last := (next + n - 1) / blockBytes
		for idx := next / blockBytes; idx <= last; idx++ {
			dst = append(dst, idx)
		}
	}
	return dst
}

// counts tallies the verdicts of the streams observed so far (for Stats);
// a stream numbered only for its dirty blocks has none.
func (cl *classifier) counts() (seq, strided, random, unknown int64) {
	for k := 0; k < cl.n; k++ {
		st := &cl.pages[k/statePage][k%statePage]
		if st.accesses == 0 {
			continue
		}
		switch st.pattern() {
		case PatternSequential:
			seq++
		case PatternStrided:
			strided++
		case PatternRandom:
			random++
		default:
			unknown++
		}
	}
	return
}
