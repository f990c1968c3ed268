// Command replay re-executes a captured SDDF application trace against an
// alternative machine configuration — trace-driven "what-if" evaluation:
//
//	iochar -app escat -small -trace escat.sddf     # capture
//	replay -ionodes 32 -stripe 131072 escat.sddf   # what if the machine differed?
//
// It prints the replayed operation summary, the makespan, and (with -sweep)
// an I/O-node scaling table. With -jitter the preserved think gaps are
// perturbed by a seeded random fraction (-seed picks the perturbation).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

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
	jitter := fs.Float64("jitter", 0, "perturb each think gap by up to this fraction (0 = exact replay)")
	seed := fs.Uint64("seed", 0, "seed for the think-gap jitter streams")
	sweep := fs.Bool("sweep", false, "replay across 1..64 I/O nodes and print the scaling table")
	if err := fs.Parse(args); err != nil {
		return err
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
	maxNode := 0
	for _, e := range trace {
		if n := int(e.Node); n > maxNode {
			maxNode = n
		}
	}
	compute := *nodes
	if compute == 0 {
		compute = maxNode + 1
	}

	mkOpt := func(ion int) replay.Options {
		mc := workload.DefaultMachineConfig()
		mc.ComputeNodes = compute
		mc.PFS.IONodes = ion
		mc.PFS.StripeUnit = *stripe
		return replay.Options{
			Machine: mc, PreserveThinkTime: *think,
			ThinkJitter: *jitter, Seed: *seed,
		}
	}

	if *sweep {
		fmt.Fprintf(out, "%-10s %12s %14s %10s\n", "I/O nodes", "makespan", "I/O node-time", "skipped")
		for _, ion := range []int{1, 2, 4, 8, 16, 32, 64} {
			res, err := replay.Run(trace, mkOpt(ion))
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-10d %11.2fs %13.2fs %10d\n",
				ion, res.Makespan.Seconds(), res.Summary.Total.NodeTime.Seconds(), res.Skipped)
		}
		return nil
	}

	res, err := replay.Run(trace, mkOpt(*ionodes))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d events on %d compute + %d I/O nodes (stripe %s)\n",
		len(trace), compute, *ionodes, humanStripe(*stripe))
	fmt.Fprintf(out, "makespan: %.2f s, skipped: %d\n\n", res.Makespan.Seconds(), res.Skipped)
	fmt.Fprintln(out, res.Summary.Render("Replayed operation summary"))
	return nil
}

func humanStripe(n int64) string {
	if n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
