// Command stress runs an application under a chaos scenario — disk failures
// degrading RAID-3 arrays, I/O-node outages, latency storms — with
// checkpoint/restart, and prints the resilience report: the attempt history,
// the realized incident timeline, fault exposure, per-fault latency impact,
// and the checkpoint-overhead-versus-lost-work accounting.
//
// The flags translate into a scenario (internal/scenario) whose chaos
// section comes from a built-in catalog (-scenario); 'stress scenario run
// FILE' runs a scenario file through the same path. Everything is seeded:
// two runs with the same flags produce byte-identical reports.
//
// Usage:
//
//	stress -scenario outage -seed 7
//	stress -scenario disks -sweep 0,1,2,4
//	stress -scenario none -corrupt all -scrub -deadline 0.5 -retries 4
//	stress -scenario none -burst -burst-mb 64 -compress 1.8
//	stress scenario validate|run [-shards N] FILE-OR-DIR...
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/profiling"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stress: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "scenario" {
		return runScenarioCmd(args[1:], out)
	}
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	st := cliflags.NewStudy(fs)
	st.AddFlushOnFail()
	fs.StringVar(&st.Sc.Workload.App, "app", "escat", "application to stress ("+core.AppNames()+")")
	fs.BoolVar(&st.Small, "small", true, "reduced-scale configuration (chaos scenarios are tuned to it)")
	name := fs.String("scenario", "outage", "built-in scenario: outage, disks, storm, mixed, none")
	fs.Uint64Var(&st.Sc.Seed, "seed", 0, "seed for the fault schedule's random choices")
	st.Sc.Run.CkptInterval = fs.Int("ckpt-interval", 2, "work units between checkpoints (0 = no checkpointing)")
	fs.Int64Var(&st.Sc.Run.CkptBytes, "ckpt-bytes", 4096, "checkpoint bytes written per node")
	st.Sc.Run.RestartCostS = fs.Float64("restart-cost", 1.5, "fixed restart charge in seconds")
	fs.IntVar(&st.Sc.Run.MaxAttempts, "max-attempts", 8, "give up after this many attempts")
	fs.BoolVar(&st.Failover, "failover", true, "enable PFS request failover (off: any outage kills the attempt)")
	fs.Float64Var(&st.Sc.Chaos.WindowS, "chaos-window", 600, "stop injecting corruption (and scrubbing) after this many simulated seconds")
	sweep := fs.String("sweep", "", "comma-separated checkpoint intervals to sweep (e.g. 0,1,2,4)")
	parallel := fs.Int("parallel", 0, "worker goroutines for -sweep (0 = GOMAXPROCS); results are identical at any setting")
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exec.SetWorkers(*parallel)
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	chaos, ok := builtinChaos[*name]
	if !ok {
		return fmt.Errorf("unknown scenario %q (want outage, disks, storm, mixed, none)", *name)
	}
	chaos.WindowS = st.Sc.Chaos.WindowS
	st.Sc.Chaos = chaos
	sc, err := st.Scenario()
	if err != nil {
		return err
	}

	if *sweep != "" {
		intervals, err := parseIntervals(*sweep)
		if err != nil {
			return err
		}
		rs, _, err := sc.Build()
		if err != nil {
			return err
		}
		pts, err := core.TradeoffSweep(rs, intervals)
		if err != nil {
			return err
		}
		fmt.Fprint(out, analysis.RenderTradeoff(pts))
		return nil
	}

	// The same execution as 'stress scenario run', printed without the
	// scenario sections: the flag report is a byte-prefix of the scenario
	// report.
	res, err := sc.Execute()
	if err != nil {
		return err
	}
	printResilientReport(out, res.Report)
	return res.RunErr
}

// printResilientReport renders the standard stress report sections; the
// scenario runner shares it so scenario-driven and flag-driven runs of the
// same study print byte-identical reports.
func printResilientReport(out io.Writer, rr *core.ResilientReport) {
	printAttempts(out, rr.Attempts)
	printIncidents(out, rr.Incidents)
	if rr.Final != nil {
		fmt.Fprint(out, rr.Final.RenderSubsystems())
	}
	fmt.Fprint(out, analysis.RenderResilience(rr.Resilience()))
}

// builtinChaos is the -scenario catalog, tuned to the small ESCAT run (~7.5
// simulated seconds): the faults land after the first checkpoint commit and
// across the quadrature writes.
var builtinChaos = func() map[string]scenario.Chaos {
	disks := []scenario.ChaosEvent{
		{Kind: "disk-failure", AtS: 2, Node: 0},
		{Kind: "disk-failure", AtS: 3, Node: 1},
	}
	storm := scenario.ChaosEvent{
		Kind: "latency-storm", AtS: 2, Node: scenario.NodeRef(fault.AnyNode), DurationS: 4, Factor: 4,
	}
	outage := []scenario.ChaosCascade{
		{Kind: "ionode-outage", AtS: 4.2, Nodes: 16, FirstNode: 0, DurationS: 1.2},
	}
	return map[string]scenario.Chaos{
		"none":   {},
		"outage": {Cascades: outage},
		"disks":  {Events: disks},
		"storm":  {Events: []scenario.ChaosEvent{storm}},
		"mixed":  {Events: []scenario.ChaosEvent{disks[0], disks[1], storm}, Cascades: outage},
	}
}()

func parseIntervals(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -sweep interval %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func printAttempts(out io.Writer, attempts []core.Attempt) {
	fmt.Fprintf(out, "Attempts:\n")
	fmt.Fprintf(out, "  %3s %12s %12s %12s %6s  %s\n",
		"#", "start", "end", "wall", "from", "outcome")
	for i, a := range attempts {
		outcome := "completed"
		if a.Failed {
			outcome = "failed: " + a.Err
		}
		fmt.Fprintf(out, "  %3d %11.3fs %11.3fs %11.3fs %6d  %s\n",
			i+1, a.Start.Seconds(), a.End.Seconds(), a.Wall().Seconds(),
			a.ResumeUnit, outcome)
	}
	fmt.Fprintln(out)
}

func printIncidents(out io.Writer, incidents []fault.Incident) {
	if len(incidents) == 0 {
		return
	}
	fmt.Fprintf(out, "Incidents:\n")
	fmt.Fprintf(out, "  %12s %12s %6s %-14s %s\n", "start", "end", "node", "kind", "note")
	for _, inc := range incidents {
		fmt.Fprintf(out, "  %11.3fs %11.3fs %6d %-14s %s\n",
			inc.Start.Seconds(), inc.End.Seconds(), inc.Node, inc.Kind, inc.Note)
	}
	fmt.Fprintln(out)
}
