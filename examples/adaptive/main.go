// Adaptive demonstrates the paper's §5.2 policy experiment and its §10
// adaptive-prefetching direction: the ESCAT skeleton runs once on raw PFS
// and once through the PPFS policy layer (write-behind + global request
// aggregation), and the example contrasts the application-visible write
// cost, the burst structure of Figure 4, and the physical request stream.
// It finishes by showing the access-pattern classifier at work.
package main

import (
	"fmt"
	"log"

	iochar "repro"
	"repro/internal/analysis"
	"repro/internal/apps/escat"
	"repro/internal/iotrace"
	"repro/internal/ppfs"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	// A mid-scale ESCAT so both runs finish quickly: 32 nodes, 20 cycles.
	cfg := escat.DefaultConfig()
	cfg.Nodes = 32
	cfg.Iterations = 20
	cfg.ComputeStart = 20 * sim.Second
	cfg.ComputeEnd = 10 * sim.Second

	base := run(cfg, nil)
	pol := iochar.DefaultPolicy()
	layered := run(cfg, &pol)

	fmt.Println("ESCAT on raw PFS vs PPFS (write-behind + aggregation), §5.2:")
	fmt.Printf("%-34s %14s %14s\n", "", "PFS", "PPFS")
	row := func(name string, a, b string) { fmt.Printf("%-34s %14s %14s\n", name, a, b) }
	row("wall clock",
		fmt.Sprintf("%.1f s", base.Wall.Seconds()),
		fmt.Sprintf("%.1f s", layered.Wall.Seconds()))
	row("app-visible write node-time",
		fmt.Sprintf("%.1f s", base.Summary.Row("Write").NodeTime.Seconds()),
		fmt.Sprintf("%.1f s", layered.Summary.Row("Write").NodeTime.Seconds()))
	row("app-visible seek node-time",
		fmt.Sprintf("%.1f s", base.Summary.Row("Seek").NodeTime.Seconds()),
		fmt.Sprintf("%.1f s", layered.Summary.Row("Seek").NodeTime.Seconds()))

	// Physical request streams: how many writes actually hit the disks,
	// and how large they were.
	pw := analysis.FilterOps(base.Physical, iotrace.OpWrite)
	lw := analysis.FilterOps(layered.Physical, iotrace.OpWrite)
	row("physical write requests",
		fmt.Sprintf("%d", len(pw)), fmt.Sprintf("%d", len(lw)))
	row("mean physical write size",
		analysis.HumanBytes(meanBytes(pw)), analysis.HumanBytes(meanBytes(lw)))
	if layered.PolicyStats != nil {
		fmt.Printf("\nPPFS absorbed %d small writes into %d aggregated extents (mean %s).\n",
			layered.PolicyStats.BufferedWrites, layered.PolicyStats.Flushes,
			analysis.HumanBytes(layered.PolicyStats.MeanFlushExtent()))
	}

	// Figure 4's synchronized bursts: present on PFS, gone from the
	// application's critical path on PPFS.
	gap := 5 * sim.Second
	_, _, baseBursts := escat.WriteBurstTrend(analysis.FilterPhase(base.Events, escat.PhaseQuadrature), gap)
	fmt.Printf("\nFigure 4 burst groups on PFS: %d (the synchronized write clusters)\n", baseBursts)
	fmt.Printf("On PPFS the same application writes cost ~%.0f ms each instead of seconds,\n",
		meanWriteMillis(layered))
	fmt.Println("\"effectively eliminating the behavior seen in Figure 4\" (§5.2).")

	fmt.Println("\n§10 access-pattern classification of the ESCAT streams (PPFS classifier):")
	demoClassifier()
}

func run(cfg escat.Config, pol *iochar.Policy) *iochar.Report {
	study := iochar.PaperStudy(iochar.ESCAT)
	study.App = cfg
	study.Policy = pol
	report, err := iochar.Run(study)
	if err != nil {
		log.Fatal(err)
	}
	return report
}

func meanBytes(events []iotrace.Event) int64 {
	if len(events) == 0 {
		return 0
	}
	var total int64
	for _, e := range events {
		total += e.Bytes
	}
	return total / int64(len(events))
}

func meanWriteMillis(r *iochar.Report) float64 {
	row := r.Summary.Row("Write")
	if row == nil || row.Count == 0 {
		return 0
	}
	return row.NodeTime.Milliseconds() / float64(row.Count)
}

// demoClassifier feeds the §10 classifier the three stream shapes ESCAT
// exhibits and prints its verdicts.
func demoClassifier() {
	c := ppfs.NewClassifier()
	// Node 0 reading the problem definition: sequential small reads.
	for i := int64(0); i < 50; i++ {
		c.Observe(9, 0, iotrace.OpRead, i*2048, 2048)
	}
	// A node's quadrature writes: sequential within its region.
	for i := int64(0); i < 20; i++ {
		c.Observe(7, 3, iotrace.OpWrite, 3*106496+i*2048, 2048)
	}
	// A hypothetical node-interleaved stride (M_RECORD-style).
	for i := int64(0); i < 20; i++ {
		c.Observe(8, 5, iotrace.OpRead, i*128*2048+5*2048, 2048)
	}
	show := func(name string, file iotrace.FileID, node int) {
		cl := c.Classify(file, node)
		fmt.Printf("  %-38s -> %-10s (reads %.0f%%, mean %s)\n",
			name, cl.Pattern, cl.ReadFraction*100, analysis.HumanBytes(cl.MeanBytes))
	}
	show("input scan (file 9, node 0)", 9, 0)
	show("quadrature writes (file 7, node 3)", 7, 3)
	show("interleaved records (file 8, node 5)", 8, 5)
}
