package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/sim"
)

// chaosStudy is a small ESCAT run with a machine-wide I/O-node outage placed
// after the first checkpoint commit (~3.5 s) and across the middle quadrature
// writes, so an unprotected run dies mid-flight.
func chaosStudy() ResilientStudy {
	s := SmallStudy(ESCAT)
	s.Faults = fault.Plan{Cascades: []fault.Cascade{{
		Kind: fault.IONodeOutage, At: 4200 * sim.Millisecond,
		Nodes: 16, FirstNode: 0, Spacing: 0, Duration: 1200 * sim.Millisecond,
	}}}
	s.FaultSeed = 7
	return ResilientStudy{
		Study:       s,
		Ckpt:        ckpt.Config{Interval: 2, BytesPerNode: 4096, FileName: "escat.ckpt"},
		RestartCost: 1500 * sim.Millisecond,
	}
}

func TestResilientEscatRestartsFromCheckpoint(t *testing.T) {
	rr, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatalf("RunResilient: %v", err)
	}
	if rr.Final == nil {
		t.Fatal("no final report")
	}
	if len(rr.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want one failure + one success", rr.Attempts)
	}
	fail, ok := rr.Attempts[0], rr.Attempts[1]
	if !fail.Failed || !strings.Contains(fail.Err, "I/O node down") {
		t.Errorf("first attempt %+v, want ErrIONodeDown death", fail)
	}
	if fail.End <= 4200*sim.Millisecond || fail.End >= 5400*sim.Millisecond {
		t.Errorf("failure at %v, want inside the outage window", fail.End)
	}
	if ok.Failed {
		t.Errorf("second attempt failed: %s", ok.Err)
	}
	if ok.ResumeUnit != 2 {
		t.Errorf("resumed from unit %d, want 2 (one committed checkpoint of interval 2)", ok.ResumeUnit)
	}
	if ok.Start != fail.End+1500*sim.Millisecond {
		t.Errorf("restart at %v, want failure end + restart cost", ok.Start)
	}

	// Lost work: everything between the last commit and the failure.
	commit := rr.Ckpt.LastCommitAt
	if rr.LostWork <= 0 || rr.LostWork >= fail.Wall() {
		t.Errorf("lost work %v outside (0, first attempt %v)", rr.LostWork, fail.Wall())
	}
	if commit <= 0 {
		t.Error("no commit time recorded")
	}
	if rr.Ckpt.Restores != 8 {
		t.Errorf("restores = %d, want 8 (one per node)", rr.Ckpt.Restores)
	}
	if rr.Ckpt.Checkpoints < 2 {
		t.Errorf("checkpoints = %d, want >= 2", rr.Ckpt.Checkpoints)
	}
	if rr.Wall != ok.End {
		t.Errorf("wall %v != successful attempt end %v", rr.Wall, ok.End)
	}

	// The incident timeline must cover both attempts' realized outages.
	if len(rr.Incidents) == 0 {
		t.Fatal("no incidents recorded")
	}
	for _, inc := range rr.Incidents {
		if inc.Kind != fault.IONodeOutage {
			t.Errorf("unexpected incident %+v", inc)
		}
	}
}

func TestResilientDeterministicHistory(t *testing.T) {
	a, errA := RunResilient(chaosStudy())
	b, errB := RunResilient(chaosStudy())
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a.Attempts, b.Attempts) {
		t.Errorf("attempt histories differ:\n%+v\n%+v", a.Attempts, b.Attempts)
	}
	if !reflect.DeepEqual(a.Incidents, b.Incidents) {
		t.Error("incident timelines differ")
	}
	if a.Wall != b.Wall || a.LostWork != b.LostWork {
		t.Errorf("wall/lost differ: %v/%v vs %v/%v", a.Wall, a.LostWork, b.Wall, b.LostWork)
	}
	if a.Ckpt != b.Ckpt {
		t.Errorf("ckpt stats differ: %+v vs %+v", a.Ckpt, b.Ckpt)
	}
}

// Without checkpoints the run still completes (the restart lands after the
// outage) but every failure discards the whole attempt — the
// checkpoint-overhead-versus-lost-work tradeoff in one assertion.
func TestResilientNoCheckpointLosesMore(t *testing.T) {
	withCkpt, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatal(err)
	}
	rs := chaosStudy()
	rs.Ckpt = ckpt.Config{}
	without, err := RunResilient(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Attempts) < 2 {
		t.Fatalf("attempts %+v", without.Attempts)
	}
	if got := without.Attempts[len(without.Attempts)-1].ResumeUnit; got != 0 {
		t.Errorf("uncheckpointed run resumed from unit %d", got)
	}
	if without.LostWork <= withCkpt.LostWork {
		t.Errorf("lost work without checkpoints (%v) not above with (%v)",
			without.LostWork, withCkpt.LostWork)
	}
	if without.Ckpt.Checkpoints != 0 || without.Ckpt.Restores != 0 {
		t.Errorf("ckpt stats on uncheckpointed run: %+v", without.Ckpt)
	}
}

// RENDER's gateway dies on the first read to a downed I/O node. The failed
// attempt ends there, not when its dead engine would have gone idle (at the
// outage's end, 5.4 s), and without checkpoints the whole attempt is lost.
func TestResilientRenderAttemptEndsAtFailure(t *testing.T) {
	rs := chaosStudy()
	faults := rs.Study.Faults
	rs.Study = SmallStudy(RENDER)
	rs.Study.Faults, rs.Study.FaultSeed = faults, 7
	rs.Ckpt = ckpt.Config{}
	rr, err := RunResilient(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Attempts) != 2 {
		t.Fatalf("attempts %+v, want one failure and one success", rr.Attempts)
	}
	fail, next := rr.Attempts[0], rr.Attempts[1]
	if !fail.Failed || !strings.HasPrefix(fail.Err, "gateway: ") || !strings.Contains(fail.Err, "I/O node down") {
		t.Errorf("first attempt %+v, want the gateway's I/O-node-down failure", fail)
	}
	if want := 5152765 * sim.Microsecond; fail.End != want {
		t.Errorf("failed attempt ends at %v, want the gateway's failure at %v", fail.End, want)
	}
	if rr.LostWork != fail.End {
		t.Errorf("lost work %v, want the whole failed attempt %v", rr.LostWork, fail.End)
	}
	if next.Start != fail.End+rs.RestartCost {
		t.Errorf("restart at %v, want failure %v + restart cost", next.Start, fail.End)
	}
	for _, inc := range rr.Incidents {
		if inc.Start < next.Start && (inc.End > fail.End || !inc.Open) {
			t.Errorf("failed attempt's %s incident %v–%v (open %v) not cut at the failure %v",
				inc.Kind, inc.Start, inc.End, inc.Open, fail.End)
		}
	}
}
