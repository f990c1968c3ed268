package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/iotrace"
)

// Purpose is the paper's §2 taxonomy of why high-performance applications
// perform I/O: compulsory accesses (initialization input and final output),
// checkpoints (state written for later restart or parametric reuse), and
// out-of-core staging (data too large for primary memory, written and
// reread within the run).
type Purpose int

// I/O purposes.
const (
	PurposeUnknown Purpose = iota
	PurposeCompulsoryInput
	PurposeCompulsoryOutput
	PurposeCheckpoint
	PurposeOutOfCore
)

var purposeNames = [...]string{
	"unknown", "compulsory-input", "compulsory-output", "checkpoint", "out-of-core",
}

// String names the purpose.
func (p Purpose) String() string {
	if p < 0 || int(p) >= len(purposeNames) {
		return "invalid"
	}
	return purposeNames[p]
}

// FilePurpose is the classification of one file's role in a run.
type FilePurpose struct {
	File         iotrace.FileID
	Purpose      Purpose
	BytesRead    int64
	BytesWritten int64
	Readers      int  // distinct nodes that read
	Writers      int  // distinct nodes that wrote
	RereadOwn    bool // every reader reread data it wrote itself
}

// ClassifyPurposes infers each file's §2 purpose from its observed role:
//
//   - read-only files are compulsory input;
//   - write-only files are compulsory output;
//   - files written then reread by the same nodes within the run are
//     out-of-core staging if rereads happen repeatedly (several passes) or
//     late-run single-pass reuse (checkpoint-style) otherwise;
//   - anything else stays unknown.
//
// The heuristics mirror the paper's narratives: ESCAT's quadrature files
// serve both as checkpoint ("the desire to checkpoint the quadrature data
// set for reuse in later executions") and staging; HTF's integral files are
// classic out-of-core ("they are too large to retain in memory").
func ClassifyPurposes(events []iotrace.Event) []FilePurpose {
	type fileState struct {
		bytesRead, bytesWritten int64
		readers, writers        map[int]bool
		readsPerNode            map[int]int64
		wroteThenRead           bool
		crossRead               bool             // some node read another node's data
		writeRanges             map[int][2]int64 // node -> [min,max) written
	}
	files := map[iotrace.FileID]*fileState{}
	get := func(id iotrace.FileID) *fileState {
		s := files[id]
		if s == nil {
			s = &fileState{
				readers: map[int]bool{}, writers: map[int]bool{},
				readsPerNode: map[int]int64{}, writeRanges: map[int][2]int64{},
			}
			files[id] = s
		}
		return s
	}
	for _, e := range events {
		node := int(e.Node)
		switch e.Op {
		case iotrace.OpWrite:
			s := get(e.File)
			s.bytesWritten += e.Bytes
			s.writers[node] = true
			r, ok := s.writeRanges[node]
			if !ok {
				r = [2]int64{e.Offset, e.Offset + e.Bytes}
			} else {
				if e.Offset < r[0] {
					r[0] = e.Offset
				}
				if e.Offset+e.Bytes > r[1] {
					r[1] = e.Offset + e.Bytes
				}
			}
			s.writeRanges[node] = r
		case iotrace.OpRead, iotrace.OpAsyncRead:
			s := get(e.File)
			s.bytesRead += e.Bytes
			s.readers[node] = true
			s.readsPerNode[node]++
			if len(s.writers) > 0 {
				s.wroteThenRead = true
				if r, ok := s.writeRanges[node]; ok &&
					e.Offset >= r[0] && e.Offset+e.Bytes <= r[1] {
					// reread of own region
				} else {
					s.crossRead = true
				}
			}
		}
	}

	var out []FilePurpose
	for id, s := range files {
		fp := FilePurpose{
			File: id, BytesRead: s.bytesRead, BytesWritten: s.bytesWritten,
			Readers: len(s.readers), Writers: len(s.writers),
			RereadOwn: s.wroteThenRead && !s.crossRead,
		}
		switch {
		case s.bytesWritten == 0 && s.bytesRead > 0:
			fp.Purpose = PurposeCompulsoryInput
		case s.bytesRead == 0 && s.bytesWritten > 0:
			fp.Purpose = PurposeCompulsoryOutput
		case s.wroteThenRead:
			// Repeated rereads of the written data (multiple passes) are
			// out-of-core; a single reuse is checkpoint-style.
			if maxReads(s.readsPerNode) > 1 && s.bytesRead > s.bytesWritten {
				fp.Purpose = PurposeOutOfCore
			} else {
				fp.Purpose = PurposeCheckpoint
			}
		}
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out
}

func maxReads(perNode map[int]int64) int64 {
	var max int64
	for _, n := range perNode {
		if n > max {
			max = n
		}
	}
	return max
}

// PurposeBreakdown sums traffic per purpose class.
type PurposeBreakdown struct {
	Purpose Purpose
	Files   int
	Bytes   int64 // read + written
}

// BreakdownByPurpose aggregates a classification into per-class totals, in
// purpose order.
func BreakdownByPurpose(fps []FilePurpose) []PurposeBreakdown {
	agg := map[Purpose]*PurposeBreakdown{}
	for _, fp := range fps {
		b := agg[fp.Purpose]
		if b == nil {
			b = &PurposeBreakdown{Purpose: fp.Purpose}
			agg[fp.Purpose] = b
		}
		b.Files++
		b.Bytes += fp.BytesRead + fp.BytesWritten
	}
	var out []PurposeBreakdown
	for _, b := range agg {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Purpose < out[j].Purpose })
	return out
}

// RenderPurposes formats a classification as a report section.
func RenderPurposes(fps []FilePurpose) string {
	var b strings.Builder
	fmt.Fprintf(&b, "I/O purpose classification (§2 taxonomy):\n")
	fmt.Fprintf(&b, "%4s %-18s %10s %10s %8s %8s %10s\n",
		"file", "purpose", "read", "written", "readers", "writers", "reread-own")
	for _, fp := range fps {
		fmt.Fprintf(&b, "%4d %-18s %10s %10s %8d %8d %10v\n",
			fp.File, fp.Purpose, HumanBytes(fp.BytesRead), HumanBytes(fp.BytesWritten),
			fp.Readers, fp.Writers, fp.RereadOwn)
	}
	for _, pb := range BreakdownByPurpose(fps) {
		fmt.Fprintf(&b, "  %-18s %3d files, %s\n", pb.Purpose, pb.Files, HumanBytes(pb.Bytes))
	}
	return b.String()
}
