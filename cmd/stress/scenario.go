package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/scenario"
)

// runScenarioCmd dispatches the "stress scenario <verb>" subcommands: the
// declarative-DSL front door.
func runScenarioCmd(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: stress scenario <validate|run> [-shards N] FILE-OR-DIR...")
	}
	switch args[0] {
	case "validate":
		return scenarioValidate(args[1:], out)
	case "run":
		return scenarioRun(args[1:], out)
	}
	return fmt.Errorf("unknown scenario subcommand %q (want validate or run)", args[0])
}

// collectScenarioFiles expands file and directory arguments into a sorted
// list of scenario files (*.yaml, *.yml, *.json inside directories).
func collectScenarioFiles(args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"scenarios"}
	}
	var files []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			switch filepath.Ext(e.Name()) {
			case ".yaml", ".yml", ".json":
				files = append(files, filepath.Join(arg, e.Name()))
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario files found under %s", strings.Join(args, ", "))
	}
	sort.Strings(files)
	return files, nil
}

// scenarioValidate parses every file and reports per-file verdicts; any
// invalid file fails the command.
func scenarioValidate(args []string, out io.Writer) error {
	files, err := collectScenarioFiles(args)
	if err != nil {
		return err
	}
	bad := 0
	for _, f := range files {
		sc, err := scenario.Load(f)
		if err == nil {
			// Validate includes the build-time cross-checks (zone
			// membership, app node-count fit) so "validate" means "would
			// run", for the base and every variant.
			for _, v := range append([]*scenario.Scenario{sc}, sc.Variants...) {
				if _, _, err = v.Build(); err != nil {
					break
				}
			}
		}
		if err != nil {
			bad++
			fmt.Fprintf(out, "FAIL %s\n     %v\n", f, err)
			continue
		}
		if len(sc.Variants) > 0 {
			fmt.Fprintf(out, "ok   %s (%s + %d variants)\n", f, sc.Name, len(sc.Variants))
		} else {
			fmt.Fprintf(out, "ok   %s (%s)\n", f, sc.Name)
		}
	}
	fmt.Fprintf(out, "%d scenarios, %d invalid\n", len(files), bad)
	if bad > 0 {
		return fmt.Errorf("%d of %d scenarios failed validation", bad, len(files))
	}
	return nil
}

// scenarioRun executes each scenario, a file's variants after its base, and
// prints the standard stress report followed by the fleet and assertion
// sections, and for a file with variants a table comparing its runs; any
// failed assertion fails the command. With a single file without variants the
// report is byte-identical to the equivalent flag-driven invocation, with the
// scenario sections appended.
func scenarioRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stress scenario run", flag.ContinueOnError)
	shards := cliflags.AddShards(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files, err := collectScenarioFiles(fs.Args())
	if err != nil {
		return err
	}
	runs, failed := 0, 0
	for i, f := range files {
		sc, err := scenario.Load(f)
		if err != nil {
			return err
		}
		all := append([]*scenario.Scenario{sc}, sc.Variants...)
		results := make([]*scenario.Result, 0, len(all))
		for j, v := range all {
			v.Shards = *shards
			if len(files) > 1 || len(all) > 1 {
				if i > 0 || j > 0 {
					fmt.Fprintln(out)
				}
				fmt.Fprintf(out, "=== %s (%s) ===\n", v.Name, f)
			}
			res, err := v.Execute()
			if err != nil {
				return err
			}
			printResilientReport(out, res.Report)
			if res.FleetRun != nil {
				fmt.Fprint(out, scenario.RenderFleetRun(res.FleetRun))
			}
			if fl := scenario.RenderFleet(res.Fleet); fl != "" {
				fmt.Fprint(out, fl)
			}
			fmt.Fprint(out, scenario.RenderChecks(v.Name, res.M, res.Checks))
			results = append(results, res)
			runs++
			if !res.Pass() {
				failed++
			}
		}
		if len(sc.Variants) > 0 {
			fmt.Fprintf(out, "\n%s", scenario.RenderVariants(sc.Name, results))
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed their assertions", failed, runs)
	}
	return nil
}
