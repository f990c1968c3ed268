package cache

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

// streamState is the classifier's per-stream memory.
type streamState struct {
	lastStart int64
	lastEnd   int64
	stride    int64
	accesses  int64
	seq       int64 // transitions continuing at lastEnd
	strided   int64 // non-sequential transitions repeating the stride
	seqRun    int64 // current consecutive sequential transitions
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

// classifier tracks every stream (file identity) seen by one cache. It
// remembers the last stream it looked up, so a run of accesses on one
// stream skips the map.
type classifier struct {
	streams    map[int64]*streamState
	lastStream int64
	last       *streamState // nil until the first lookup
}

func newClassifier() *classifier {
	return &classifier{streams: make(map[int64]*streamState)}
}

// observe folds one access into the stream's state and returns it.
func (cl *classifier) observe(stream, addr, n int64) *streamState {
	st := cl.last
	if st == nil || cl.lastStream != stream {
		if st = cl.streams[stream]; st == nil {
			st = &streamState{}
			cl.streams[stream] = st
		}
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

// counts tallies the per-stream verdicts (for Stats).
func (cl *classifier) counts() (seq, strided, random, unknown int64) {
	for _, st := range cl.streams {
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
