package analysis

import (
	"strings"
	"testing"

	"repro/internal/iotrace"
)

func rd(file iotrace.FileID, node int, off, n int64) iotrace.Event {
	return iotrace.Event{Op: iotrace.OpRead, File: file, Node: int32(node), Offset: off, Bytes: n}
}

func wr(file iotrace.FileID, node int, off, n int64) iotrace.Event {
	return iotrace.Event{Op: iotrace.OpWrite, File: file, Node: int32(node), Offset: off, Bytes: n}
}

func classOf(t *testing.T, fps []FilePurpose, id iotrace.FileID) FilePurpose {
	t.Helper()
	for _, fp := range fps {
		if fp.File == id {
			return fp
		}
	}
	t.Fatalf("file %d not classified", id)
	return FilePurpose{}
}

func TestClassifyCompulsoryRoles(t *testing.T) {
	events := []iotrace.Event{
		rd(1, 0, 0, 1000), rd(1, 0, 1000, 1000), // input: read only
		wr(2, 0, 0, 5000), // output: written only
	}
	fps := ClassifyPurposes(events)
	if got := classOf(t, fps, 1); got.Purpose != PurposeCompulsoryInput || got.Readers != 1 {
		t.Fatalf("file 1: %+v", got)
	}
	if got := classOf(t, fps, 2); got.Purpose != PurposeCompulsoryOutput {
		t.Fatalf("file 2: %+v", got)
	}
}

func TestClassifyCheckpointSingleReuse(t *testing.T) {
	// ESCAT staging shape: each node writes its region, then rereads it
	// exactly once.
	var events []iotrace.Event
	for node := 0; node < 4; node++ {
		base := int64(node) * 10_000
		for i := int64(0); i < 5; i++ {
			events = append(events, wr(7, node, base+i*2000, 2000))
		}
	}
	for node := 0; node < 4; node++ {
		events = append(events, rd(7, node, int64(node)*10_000, 10_000))
	}
	fps := ClassifyPurposes(events)
	got := classOf(t, fps, 7)
	if got.Purpose != PurposeCheckpoint {
		t.Fatalf("staging file: %+v", got)
	}
	if !got.RereadOwn {
		t.Fatal("reread-own not detected")
	}
}

func TestClassifyOutOfCoreRepeatedPasses(t *testing.T) {
	// HTF integral shape: one node writes its file, then rereads it in
	// several passes.
	var events []iotrace.Event
	for i := int64(0); i < 4; i++ {
		events = append(events, wr(9, 3, i*80_000, 80_000))
	}
	for pass := 0; pass < 6; pass++ {
		for i := int64(0); i < 4; i++ {
			events = append(events, rd(9, 3, i*80_000, 80_000))
		}
	}
	fps := ClassifyPurposes(events)
	got := classOf(t, fps, 9)
	if got.Purpose != PurposeOutOfCore {
		t.Fatalf("integral file: %+v", got)
	}
	if got.BytesRead != 6*got.BytesWritten {
		t.Fatalf("volumes %+v", got)
	}
}

func TestClassifyCrossNodeReadNotRereadOwn(t *testing.T) {
	events := []iotrace.Event{
		wr(5, 0, 0, 1000),
		rd(5, 1, 0, 1000), // a different node reads it
	}
	got := classOf(t, ClassifyPurposes(events), 5)
	if got.RereadOwn {
		t.Fatal("cross-node read misdetected as reread-own")
	}
}

func TestBreakdownAndRender(t *testing.T) {
	events := []iotrace.Event{
		rd(1, 0, 0, 1000),
		wr(2, 0, 0, 500),
		wr(3, 0, 0, 500),
	}
	fps := ClassifyPurposes(events)
	bd := BreakdownByPurpose(fps)
	var outputs PurposeBreakdown
	for _, b := range bd {
		if b.Purpose == PurposeCompulsoryOutput {
			outputs = b
		}
	}
	if outputs.Files != 2 || outputs.Bytes != 1000 {
		t.Fatalf("breakdown %+v", bd)
	}
	out := RenderPurposes(fps)
	for _, want := range []string{"compulsory-input", "compulsory-output", "purpose"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPurposeNames(t *testing.T) {
	if PurposeOutOfCore.String() != "out-of-core" || PurposeUnknown.String() != "unknown" {
		t.Fatal("names")
	}
	if Purpose(99).String() != "invalid" {
		t.Fatal("invalid name")
	}
}
