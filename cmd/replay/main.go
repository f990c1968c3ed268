// Command replay re-executes a captured SDDF application trace against an
// alternative machine configuration — trace-driven "what-if" evaluation:
//
//	iochar -app escat -small -trace escat.sddf     # capture
//	replay -ionodes 32 -stripe 131072 escat.sddf   # what if the machine differed?
//
// It prints the replayed operation summary, the makespan, and (with -sweep)
// an I/O-node scaling table. With -jitter the preserved think gaps are
// perturbed by a seeded random fraction (-seed picks the perturbation).
// Each replay is a study like any other, run through core.Run.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sddf"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("replay: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	ionodes := fs.Int("ionodes", 16, "I/O nodes in the replay machine")
	stripe := fs.Int64("stripe", 64*1024, "stripe unit in bytes")
	nodes := fs.Int("nodes", 0, "compute nodes (0 = infer from trace, min 1 more than max node)")
	think := fs.Bool("think", true, "preserve the trace's inter-request compute gaps")
	jitter := fs.Float64("jitter", 0, "perturb each think gap by up to this fraction, in [0, 1] (0 = exact replay)")
	seed := fs.Uint64("seed", 0, "seed for the think-gap jitter streams")
	sweep := fs.Bool("sweep", false, "replay across 1..64 I/O nodes and print the scaling table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *nodes < 0 {
		return fmt.Errorf("-nodes %d: want >= 0 (0 = infer from trace)", *nodes)
	}
	if !(*jitter >= 0 && *jitter <= 1) { // NaN fails both
		return fmt.Errorf("-jitter %v: want a fraction in [0, 1]", *jitter)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: replay [flags] TRACE.sddf")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	trace, err := sddf.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	cfg := replay.Config{
		Trace: trace, Nodes: *nodes, PreserveThinkTime: *think,
		ThinkJitter: *jitter, Seed: *seed,
	}
	replayOn := func(ion int) (*core.Report, error) {
		mc := workload.DefaultMachineConfig()
		mc.PFS.IONodes = ion
		mc.PFS.StripeUnit = *stripe
		return core.Run(core.Study{App: cfg, Machine: mc, KeepTrace: true})
	}
	skipped := cfg.Skipped()

	if *sweep {
		fmt.Fprintf(out, "%-10s %12s %14s %10s\n", "I/O nodes", "makespan", "I/O node-time", "skipped")
		for _, ion := range []int{1, 2, 4, 8, 16, 32, 64} {
			r, err := replayOn(ion)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-10d %11.2fs %13.2fs %10d\n",
				ion, r.Wall.Seconds(), r.Summary.Total.NodeTime.Seconds(), skipped)
		}
		return nil
	}

	r, err := replayOn(*ionodes)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d events on %d compute + %d I/O nodes (stripe %s)\n",
		len(trace), cfg.ComputeNodes(), *ionodes, humanStripe(*stripe))
	fmt.Fprintf(out, "makespan: %.2f s, skipped: %d\n\n", r.Wall.Seconds(), skipped)
	fmt.Fprintln(out, r.Summary.Render("Replayed operation summary"))
	return nil
}

func humanStripe(n int64) string {
	if n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
