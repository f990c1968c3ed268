// Command paperrepro regenerates every table and figure of the paper:
// it runs the three application studies at paper scale, prints
// paper-vs-measured comparisons for Tables 1-6, grades each run against the
// paper's fidelity contract (a scorecard line per app, plus one line per
// failing check), and writes each figure (2-17) as CSV data plus an ASCII
// rendering.
//
// Usage:
//
//	paperrepro [-app escat|render|htf] [-out DIR] [-no-figures] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/profiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperrepro: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	appFilter := fs.String("app", "", "run only this application ("+core.AppNames()+")")
	outDir := fs.String("out", "out", "directory for figure data and renderings")
	noFigures := fs.Bool("no-figures", false, "skip writing figure files")
	parallel := fs.Int("parallel", 0, "worker goroutines for the application runs (0 = GOMAXPROCS); output is identical at any setting")
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	apps := core.Apps()
	if *appFilter != "" {
		app, err := core.ParseApp(*appFilter)
		if err != nil {
			return fmt.Errorf("-app %w", err)
		}
		apps = []core.AppID{app}
	}
	exec.SetWorkers(*parallel)
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	// The three paper-scale studies are independent simulations; fan them out
	// and print in app order.
	reports, err := exec.Map(apps, func(_ int, app core.AppID) (*core.Report, error) {
		report, err := core.Run(core.PaperStudy(app))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", app, err)
		}
		return report, nil
	})
	if err != nil {
		return err
	}

	for i, app := range apps {
		report := reports[i]
		fmt.Fprintf(out, "==== %s (wall clock %.0f s, %d events) ====\n\n",
			app, report.Wall.Seconds(), len(report.Events))

		for _, pt := range core.PaperTables() {
			if pt.App == app {
				fmt.Fprintln(out, core.CompareTable(pt, report))
			}
		}
		for _, st := range core.PaperSizeTables() {
			if st.App == app {
				fmt.Fprintln(out, core.CompareSizeTable(st, report))
			}
		}
		fmt.Fprintf(out, "%s\n%s\n", report.Headline(), report.Fidelity())

		if !*noFigures {
			if err := writeFigures(out, *outDir, app, report); err != nil {
				return fmt.Errorf("%s: %v", app, err)
			}
		}
	}
	return nil
}

func writeFigures(out io.Writer, dir string, app core.AppID, r *core.Report) error {
	sub := filepath.Join(dir, string(app))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	for _, fig := range r.Figures() {
		csvPath := filepath.Join(sub, fig.ID+".csv")
		f, err := os.Create(csvPath)
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
		txt := analysis.RenderScatter(fig.Points, analysis.PlotOptions{
			Title: fig.Title, LogY: fig.LogY,
			YLabel: yLabel(fig.LogY), XLabel: "time",
		})
		if err := os.WriteFile(filepath.Join(sub, fig.ID+".txt"), []byte(txt), 0o644); err != nil {
			return err
		}
		svg := analysis.RenderSVG(fig.Points, analysis.SVGOptions{
			Title: fig.Title, LogY: fig.LogY,
			YLabel: yLabel(fig.LogY), XLabel: "time (s)",
		})
		if err := os.WriteFile(filepath.Join(sub, fig.ID+".svg"), svg, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d points) plus .txt and .svg renderings\n", csvPath, fig.Points.Len())
	}
	fmt.Fprintln(out)
	return nil
}

func yLabel(logY bool) string {
	if logY {
		return "request size"
	}
	return "file id"
}
