// Command iochar runs one application under the simulated Paragon/PFS
// machine (optionally through the PPFS policy layer) and reports its I/O
// characterization: operation-summary and request-size tables, per-file
// lifetime summaries, and (optionally) an SDDF trace file.
//
// Usage:
//
//	iochar -app escat [-small] [-policy none|ppfs|adaptive]
//	       [-cache] [-cache-mb MB] [-prefetch=false]
//	       [-collective] [-aggregators N] [-sched cscan]
//	       [-burst] [-burst-mb MB] [-burst-drain MB/s] [-compress RATIO]
//	       [-trace FILE] [-trace-ascii] [-window SECONDS] [-figures DIR]
//	       [-mtbf SECONDS -seed N]
//	       [-corrupt all|bit-rot,torn-write,misdirected-write] [-scrub]
//	       [-deadline SECONDS] [-retries N]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/ppfs"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/sddf"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iochar: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iochar", flag.ContinueOnError)
	app := fs.String("app", "escat", "application to run (escat, render, htf)")
	small := fs.Bool("small", false, "reduced-scale configuration (fast)")
	policy := fs.String("policy", "none", "file system policy layer: none, ppfs, adaptive")
	traceFile := fs.String("trace", "", "write the SDDF event trace to this file")
	traceASCII := fs.Bool("trace-ascii", false, "write the trace in ASCII SDDF instead of binary")
	summaryFile := fs.String("summaries", "", "write the Pablo reductions as SDDF records to this file")
	jsonFile := fs.String("json", "", "write the characterization results as JSON to this file")
	window := fs.Float64("window", 10, "time-window reduction width in seconds")
	figures := fs.String("figures", "", "write figure CSV/ASCII files to this directory")
	cacheFlags := cliflags.AddCache(fs)
	collFlags := cliflags.AddCollective(fs)
	burstFlags := cliflags.AddBurst(fs)
	scenarioFlag := cliflags.AddScenario(fs, "scenario")
	shardFlags := cliflags.AddShards(fs)
	mtbf := fs.Float64("mtbf", 0, "inject I/O-node outages with this exponential mean time between failures in seconds (0 = none)")
	outage := fs.Float64("outage", 5, "duration in seconds of each injected outage")
	chaosWindow := fs.Float64("chaos-window", 600, "stop injecting faults after this many simulated seconds")
	seed := fs.Uint64("seed", 0, "seed for the injected-fault schedule")
	relFlags := cliflags.AddReliability(fs)
	repFlags := cliflags.AddReplication(fs)
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	var study core.Study
	var fleetOpts *core.FleetOptions
	if sc, ok, err := scenarioFlag.Load(); err != nil {
		return err
	} else if ok {
		// A scenario file drives the whole study — app, scale, policy,
		// features, fleet and chaos — so the flag-driven knobs below are
		// bypassed. iochar runs a single attempt of it (no restart loop;
		// use 'stress scenario run' for the resilience semantics).
		rs, fleet, err := sc.Build()
		if err != nil {
			return err
		}
		study = rs.Study
		*app = sc.Workload.App
		if study.Burst.Enabled {
			// iochar runs without checkpointing: route the application's
			// bulk output through the log by name prefix, as with -burst.
			study.Burst.Prefixes = append(core.OutputPrefixes(core.AppID(*app)), study.Burst.Prefixes...)
		}
		if fl := scenario.RenderFleet(fleet); fl != "" {
			fmt.Fprint(out, fl)
		}
		if fo, isFleet := sc.FleetOptions(shardFlags.Count()); isFleet {
			fleetOpts = &fo
		}
	} else {
		if *small {
			study = core.SmallStudy(core.AppID(*app))
		} else {
			study = core.PaperStudy(core.AppID(*app))
		}
		study.WindowWidth = sim.FromSeconds(*window)

		switch *policy {
		case "none":
		case "ppfs":
			pol := ppfs.DefaultPolicy()
			study.Policy = &pol
		case "adaptive":
			pol := ppfs.DefaultPolicy()
			pol.Adaptive = true
			study.Policy = &pol
		default:
			return fmt.Errorf("unknown policy %q", *policy)
		}

		cacheFlags.Apply(&study.Machine.PFS)
		if err := collFlags.Apply(&study.Machine.PFS); err != nil {
			return err
		}
		if bcfg, err := burstFlags.Config(); err != nil {
			return err
		} else if bcfg.Enabled {
			// iochar runs without checkpointing, so route the application's bulk
			// output files through the log by name prefix — otherwise the tier
			// would sit idle (no application in the suite uses M_LOG).
			bcfg.Prefixes = append(core.OutputPrefixes(core.AppID(*app)), bcfg.Prefixes...)
			study.Burst = bcfg
		}

		if *mtbf > 0 {
			// Chaos runs need the failover policy on (with replication) so the
			// application survives the injected outages.
			study.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
			study.Machine.PFS.Failover.Replicate = true
			study.Faults = fault.Plan{Exps: []fault.Exp{{
				Kind:        fault.IONodeOutage,
				MeanBetween: sim.FromSeconds(*mtbf),
				Start:       0, End: sim.FromSeconds(*chaosWindow),
				Node:     fault.AnyNode,
				Duration: sim.FromSeconds(*outage),
			}}}
			study.FaultSeed = *seed
		}

		relFlags.Apply(&study.Machine.PFS, sim.FromSeconds(*chaosWindow))
		if err := repFlags.Apply(&study.Machine.PFS); err != nil {
			return err
		}
		if cp, ok, err := relFlags.CorruptionPlan(&study.Machine.PFS, sim.FromSeconds(*chaosWindow)); err != nil {
			return err
		} else if ok {
			study.Faults.Corruption = cp
			study.FaultSeed = *seed
		}
	}

	var report *core.Report
	if fleetOpts != nil {
		// Multi-cell scenario: run the fleet on the sharded engine and
		// characterize the representative cell (cell 0 keeps the study's
		// own fault timeline).
		fr, err := core.RunFleet(study, *fleetOpts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, scenario.RenderFleetRun(fr))
		report = fr.Cells[0]
	} else {
		var err error
		report, err = core.Run(study)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "%s: wall clock %.2f s, %d I/O events\n\n", *app, report.Wall.Seconds(), len(report.Events))
	for _, table := range report.Tables() {
		fmt.Fprintln(out, table)
	}
	printLifetimes(out, report)
	fmt.Fprintln(out, analysis.RenderPurposes(report.Purposes()))
	fmt.Fprintln(out, analysis.RenderPatternSummary(report.Events))
	fmt.Fprintln(out, analysis.RenderActivity(report.Windows, 72))
	if report.PolicyStats != nil {
		s := *report.PolicyStats
		fmt.Fprintf(out, "PPFS policy activity: %d buffered writes, %d direct, %d flush extents (mean %s), %d drains, %d prefetches\n\n",
			s.BufferedWrites, s.DirectWrites, s.Flushes,
			analysis.HumanBytes(s.MeanFlushExtent()), s.Drains, s.Prefetches)
	}
	if report.Cache != nil {
		fmt.Fprintln(out, analysis.RenderCacheReport(report.Cache))
	}
	if report.Collective != nil {
		fmt.Fprintln(out, analysis.RenderCollectiveReport(report.Collective))
	}
	if len(report.Sched) > 0 {
		fmt.Fprintln(out, analysis.RenderSchedReport(report.Sched))
	}
	if report.Burst != nil {
		fmt.Fprintln(out, analysis.RenderBurstReport(report.Burst))
	}
	if report.Integrity != nil {
		fmt.Fprintln(out, analysis.RenderIntegrityReport(report.Integrity))
	}
	if len(report.Incidents) > 0 {
		fmt.Fprintln(out, analysis.RenderResilience(report.Resilience()))
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		if err := sddf.WriteTrace(f, report.Events, *traceASCII); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events -> %s\n", len(report.Events), *traceFile)
	}

	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "json -> %s\n", *jsonFile)
	}

	if *summaryFile != "" {
		f, err := os.Create(*summaryFile)
		if err != nil {
			return err
		}
		if err := sddf.WriteSummaries(f, *traceASCII, report.Lifetime, report.Windows, nil, report.Wall); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "summaries -> %s\n", *summaryFile)
	}

	if *figures != "" {
		if err := os.MkdirAll(*figures, 0o755); err != nil {
			return err
		}
		figs := report.Figures()
		for _, fig := range figs {
			f, err := os.Create(filepath.Join(*figures, fig.ID+".csv"))
			if err != nil {
				return err
			}
			if err := analysis.WriteCSV(f, fig.Points); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			txt := analysis.RenderScatter(fig.Points, analysis.PlotOptions{Title: fig.Title, LogY: fig.LogY})
			if err := os.WriteFile(filepath.Join(*figures, fig.ID+".txt"), []byte(txt), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "figures: %d -> %s\n", len(figs), *figures)
	}
	return nil
}

// printLifetimes shows the Pablo file-lifetime reduction.
func printLifetimes(out io.Writer, r *core.Report) {
	fmt.Fprintln(out, "File lifetime summary (Pablo reduction):")
	fmt.Fprintf(out, "%4s %8s %8s %8s %12s %12s %12s\n",
		"file", "reads", "writes", "seeks", "bytes read", "bytes written", "open time")
	for _, f := range r.Lifetime.Files() {
		fmt.Fprintf(out, "%4d %8d %8d %8d %12s %12s %12.2fs\n",
			f.File,
			f.Count[iotrace.OpRead]+f.Count[iotrace.OpAsyncRead],
			f.Count[iotrace.OpWrite],
			f.Count[iotrace.OpSeek],
			analysis.HumanBytes(f.BytesRead),
			analysis.HumanBytes(f.BytesWritten),
			f.FinalOpenTime(r.Wall).Seconds())
	}
	fmt.Fprintln(out)
}
