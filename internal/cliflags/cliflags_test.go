package cliflags

import (
	"flag"
	"testing"

	"repro/internal/fault"
)

// iocharStudy registers the study flags the way iochar does.
func iocharStudy() (*flag.FlagSet, *Study) {
	fs := flag.NewFlagSet("iochar", flag.ContinueOnError)
	st := NewStudy(fs)
	fs.StringVar(&st.Sc.Workload.App, "app", "escat", "")
	fs.BoolVar(&st.Small, "small", false, "")
	fs.Float64Var(&st.MTBF, "mtbf", 0, "")
	fs.Float64Var(&st.Outage, "outage", 5, "")
	fs.Float64Var(&st.Sc.Chaos.WindowS, "chaos-window", 600, "")
	return fs, st
}

func TestScenarioTranslatesFlags(t *testing.T) {
	fs, st := iocharStudy()
	args := []string{"-small", "-mtbf", "3", "-rf", "3", "-repair", "-repair-mb-s", "0",
		"-burst", "-compress", "0.5", "-cache", "-prefetch=false", "-scrub"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sc, err := st.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Workload.Scale != "small" {
		t.Errorf("scale %q, want small", sc.Workload.Scale)
	}
	if len(sc.Chaos.Exps) != 1 {
		t.Fatalf("chaos exps %+v, want the -mtbf outage process", sc.Chaos.Exps)
	}
	if x := sc.Chaos.Exps[0]; x.MeanBetweenS != 3 || x.EndS != 600 || x.DurationS != 5 || int(x.Node) != fault.AnyNode {
		t.Errorf("outage process %+v", x)
	}
	fo := sc.Features.Failover
	if !fo.Enabled || fo.Factor != 3 {
		t.Errorf("failover %+v: -mtbf implies failover with replication", fo)
	}
	if fo.Repair == nil || fo.Repair.BandwidthMBs == nil || *fo.Repair.BandwidthMBs != 0 {
		t.Errorf("repair %+v: -repair-mb-s 0 must stay an explicit 0 (unthrottled)", fo.Repair)
	}
	if b := sc.Features.Burst; b == nil || b.Compress != 1 {
		t.Errorf("burst %+v: -compress 0.5 must disable the stage (ratio 1)", b)
	}
	if c := sc.Features.Cache; c == nil || c.Prefetch == nil || *c.Prefetch {
		t.Errorf("cache %+v: -prefetch=false lost", c)
	}
	if i := sc.Features.Integrity; i == nil || !i.Scrub {
		t.Errorf("integrity %+v: -scrub lost", i)
	}
}

func TestScenarioWithoutChaosKeepsFailoverOff(t *testing.T) {
	fs, st := iocharStudy()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	sc, err := st.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	// A nil failover section would mean "on with replication" to Build.
	if fo := sc.Features.Failover; fo == nil || fo.Enabled {
		t.Errorf("failover %+v, want an explicit off", fo)
	}
	if sc.Workload.Scale != "paper" || !sc.Chaos.Empty() {
		t.Errorf("default flags grew a study: %+v", sc)
	}
}

// TestScenarioReplicationFactor: an unset -rf keeps the default mirror
// (factor 2) whenever failover is on, and -rf 1 turns it off.
func TestScenarioReplicationFactor(t *testing.T) {
	for _, tc := range []struct {
		stress  bool // register stress's -failover (default on)
		args    []string
		enabled bool
		factor  int
	}{
		{false, nil, false, 0},
		{false, []string{"-mtbf", "3"}, true, 2},
		{false, []string{"-corrupt", "all"}, true, 2},
		{false, []string{"-mtbf", "3", "-rf", "1"}, true, 1},
		{false, []string{"-rf", "3"}, true, 3},
		{true, nil, true, 2},
		{true, []string{"-rf", "1"}, true, 1},
		{true, []string{"-failover=false"}, false, 0},
	} {
		fs, st := iocharStudy()
		if tc.stress {
			fs.BoolVar(&st.Failover, "failover", true, "")
		}
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		sc, err := st.Scenario()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if fo := sc.Features.Failover; fo.Enabled != tc.enabled || fo.Factor != tc.factor {
			t.Errorf("stress=%v %v: failover %+v, want enabled %v factor %d",
				tc.stress, tc.args, fo, tc.enabled, tc.factor)
		}
	}
}
