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
//	iochar -scenario FILE [-trace FILE] [-json FILE] [-figures DIR] [-shards N]
//
// The flags translate into a scenario (internal/scenario), the same
// description a -scenario file gives, and the study is built from it.
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
	"repro/internal/iotrace"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/sddf"
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
	st := cliflags.NewStudy(fs)
	fs.StringVar(&st.Sc.Workload.App, "app", "escat", "application to run ("+core.AppNames()+")")
	fs.BoolVar(&st.Small, "small", false, "reduced-scale configuration (fast)")
	fs.StringVar(&st.Sc.Workload.Policy, "policy", "none", "file system policy layer: none, ppfs, adaptive")
	fs.Float64Var(&st.Sc.Workload.WindowS, "window", 10, "time-window reduction width in seconds")
	fs.Float64Var(&st.MTBF, "mtbf", 0, "inject I/O-node outages with this exponential mean time between failures in seconds (0 = none)")
	fs.Float64Var(&st.Outage, "outage", 5, "duration in seconds of each injected outage")
	fs.Float64Var(&st.Sc.Chaos.WindowS, "chaos-window", 600, "stop injecting faults after this many simulated seconds")
	fs.Uint64Var(&st.Sc.Seed, "seed", 0, "seed for the injected-fault schedule")
	scenarioFile := fs.String("scenario", "", "declarative scenario file (YAML/JSON) describing the whole study; study-shaping flags cannot be combined with it")
	traceFile := fs.String("trace", "", "write the SDDF event trace to this file")
	traceASCII := fs.Bool("trace-ascii", false, "write the trace in ASCII SDDF instead of binary")
	summaryFile := fs.String("summaries", "", "write the Pablo reductions as SDDF records to this file")
	jsonFile := fs.String("json", "", "write the characterization results as JSON to this file")
	figures := fs.String("figures", "", "write figure CSV/ASCII files to this directory")
	shards := cliflags.AddShards(fs)
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	sc, err := loadScenario(fs, st, *scenarioFile)
	if err != nil {
		return err
	}
	// iochar runs a single attempt of the study without checkpoints: no
	// restart loop (use 'stress scenario run' for the resilience semantics).
	noCkpt := 0
	sc.Run.CkptInterval = &noCkpt
	rs, fleet, err := sc.Build()
	if err != nil {
		return err
	}
	study := rs.Study
	app := sc.Workload.App
	if fl := scenario.RenderFleet(fleet); fl != "" {
		fmt.Fprint(out, fl)
	}

	var report *core.Report
	if fo, isFleet := sc.FleetOptions(*shards); isFleet {
		// Multi-cell scenario: run the fleet's cells concurrently and
		// characterize the representative cell (cell 0 keeps the study's
		// own fault timeline).
		fr, err := core.RunFleet(study, fo)
		if err != nil {
			return err
		}
		fmt.Fprint(out, scenario.RenderFleetRun(fr))
		report = fr.Cells[0]
	} else {
		report, err = core.Run(study)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "%s: wall clock %.2f s, %d I/O events\n\n", app, report.Wall.Seconds(), len(report.Events))
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
	fmt.Fprint(out, report.RenderSubsystems())
	if len(report.Incidents) > 0 {
		fmt.Fprintln(out, analysis.RenderResilience(report.Resilience()))
	}

	if *traceFile != "" {
		if err := writeFile(*traceFile, func(w io.Writer) error {
			return sddf.WriteTrace(w, report.Events, *traceASCII)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events -> %s\n", len(report.Events), *traceFile)
	}

	if *jsonFile != "" {
		if err := writeFile(*jsonFile, report.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "json -> %s\n", *jsonFile)
	}

	if *summaryFile != "" {
		if err := writeFile(*summaryFile, func(w io.Writer) error {
			return sddf.WriteSummaries(w, *traceASCII, report.Lifetime, report.Windows, report.Wall)
		}); err != nil {
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
			if err := writeFile(filepath.Join(*figures, fig.ID+".csv"), func(w io.Writer) error {
				return analysis.WriteCSV(w, fig.Points)
			}); err != nil {
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

// writeFile creates name and hands it to write, closing it on every path. It
// returns write's error, else the close's.
func writeFile(name string, write func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outputFlags shape what iochar writes, not the study it runs: the only flags
// a -scenario file combines with.
var outputFlags = map[string]bool{
	"scenario": true, "trace": true, "trace-ascii": true, "summaries": true, "json": true,
	"figures": true, "shards": true, "cpuprofile": true, "memprofile": true,
}

// loadScenario returns the study's description: the -scenario file, or the
// study-shaping flags translated into a scenario.
func loadScenario(fs *flag.FlagSet, st *cliflags.Study, file string) (*scenario.Scenario, error) {
	if file == "" {
		return st.Scenario()
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !outputFlags[f.Name] {
			err = fmt.Errorf("-%s cannot be combined with -scenario: the scenario file describes the whole study", f.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Load(file)
	if err == nil && len(sc.Variants) > 0 {
		err = fmt.Errorf("-scenario %s has %d variants but iochar runs one study (run it with 'stress scenario run')", file, len(sc.Variants))
	}
	return sc, err
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
