// Chemsweep explores the paper's §7.2 question for the Hartree-Fock code:
// when is it better to precompute and reread the two-electron integrals than
// to recompute them on every SCF pass? It sweeps the per-node I/O rate
// through the analytic crossover model, then validates the model's
// "measured" side against a simulated pscf pass.
package main

import (
	"fmt"
	"log"

	iochar "repro"
	"repro/internal/analysis"
	"repro/internal/apps/htf"
	"repro/internal/iotrace"
)

func main() {
	log.SetFlags(0)

	model := htf.DefaultCrossoverModel()
	fmt.Printf("§7.2 crossover model: %.0f FLOPs/integral at %.0f MFLOP/s, %.0f bytes/integral\n",
		model.FlopsPerIntegral, model.NodeFlopRate/1e6, model.BytesPerIntegral)
	fmt.Printf("break-even per-node I/O rate: %.1f MB/s (paper: \"approximately 5-10 Mbytes/second per node\")\n\n",
		model.BreakEvenRate()/1e6)

	rates := []float64{0.5e6, 1e6, 2e6, 4e6, model.BreakEvenRate(), 8e6, 16e6, 32e6}
	fmt.Println(htf.RenderSweep(model.Sweep(rates)))

	// Measure what the simulated machine actually delivers per node during
	// the SCF phase, and place it on the sweep.
	cfg := htf.SmallConfig()
	cfg.Nodes = 16
	cfg.IntegralRecords = 96
	study := iochar.PaperStudy(iochar.HTF)
	study.App = cfg
	report, err := iochar.Run(study)
	if err != nil {
		log.Fatal(err)
	}
	pscf := analysis.FilterPhase(report.Events, htf.PhasePscf)
	var bytes int64
	var nodeSeconds float64
	for _, e := range pscf {
		if e.Op == iotrace.OpRead && e.Bytes >= 64*1024 {
			bytes += e.Bytes
			nodeSeconds += e.Duration().Seconds()
		}
	}
	if nodeSeconds > 0 {
		perNode := float64(bytes) / nodeSeconds
		fmt.Printf("simulated pscf delivered %.2f MB/s per node while reading integrals\n", perNode/1e6)
		if perNode < model.BreakEvenRate() {
			fmt.Println("=> on this I/O system, recomputing integrals beats rereading them,")
			fmt.Println("   which is exactly why the HTF group ships the recomputing variant (§7.2).")
		} else {
			fmt.Println("=> this I/O system is fast enough that rereading stored integrals wins.")
		}
	}

	// The paper's scale argument: integral I/O volume grows as O(N^4).
	fmt.Println("\nData-volume scaling (two-electron integrals ~ N^4/8 x 8 bytes):")
	fmt.Printf("%8s %14s\n", "atoms", "integral data")
	for _, atoms := range []int{8, 16, 32, 64} {
		basis := float64(atoms * 6) // ~6 basis functions per atom
		integrals := basis * basis * basis * basis / 8
		fmt.Printf("%8d %14s\n", atoms, analysis.HumanBytes(int64(integrals*8)))
	}
}
