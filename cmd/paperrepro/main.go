// Command paperrepro regenerates every table and figure of the paper:
// it runs the three application studies at paper scale, prints
// paper-vs-measured comparisons for Tables 1-6, grades each run against the
// paper's fidelity contract (a scorecard line per app, plus one line per
// failing check), and writes each figure (2-17) as CSV data plus ASCII and
// SVG renderings.
//
// Usage:
//
//	paperrepro [-app escat|render|htf] [-out DIR] [-no-figures] [-parallel N]
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

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
	if !*noFigures {
		// A bad -out fails here, before any study runs.
		for _, app := range apps {
			if err := os.MkdirAll(filepath.Join(*outDir, string(app)), 0o755); err != nil {
				return err
			}
		}
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
		for _, c := range report.Comparisons() {
			fmt.Fprintln(out, c.Text)
		}
		fmt.Fprintf(out, "%s\n%s\n", report.Headline(), report.Fidelity())

		if !*noFigures {
			if err := writeFigures(out, filepath.Join(*outDir, string(app)), report); err != nil {
				return fmt.Errorf("%s: %v", app, err)
			}
		}
	}
	return nil
}

// writeFigures writes the report's figure files into dir, with a line for
// each figure once its three files are written.
func writeFigures(out io.Writer, dir string, r *core.Report) error {
	var csvPath string
	var csvLines lineCount // a header, then one line per point
	err := r.WriteFigures(func(name string, write func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w := io.Writer(f)
		if filepath.Ext(name) == ".csv" {
			csvPath, csvLines, w = f.Name(), 0, io.MultiWriter(f, &csvLines)
		}
		if err := errors.Join(write(w), f.Close()); err != nil {
			return err
		}
		if filepath.Ext(name) == ".svg" {
			fmt.Fprintf(out, "wrote %s (%d points) plus .txt and .svg renderings\n", csvPath, csvLines-1)
		}
		return nil
	})
	if err == nil {
		fmt.Fprintln(out)
	}
	return err
}

// lineCount counts the lines written to it.
type lineCount int

func (n *lineCount) Write(p []byte) (int, error) {
	*n += lineCount(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}
